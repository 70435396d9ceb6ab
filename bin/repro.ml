(* Command-line driver for the reproduction experiments.

   `repro quality`  — figures 6–10 (match similarity / recall) with every
                      knob exposed: family, matching, padding, k, l, queries.
   `repro load`     — figure 11 (partitions per node).
   `repro paths`    — figure 12 (lookup path lengths).
   `repro hash`     — the program's min-hash cost per family for chosen
                      range sizes (compiled bit networks; the `fig5` bench
                      section times the paper's level-by-level network).
   `repro amplify`  — print the 1-(1-p^k)^l acceptance curve.

   All experiments are deterministic in --seed. *)

module Range = Rangeset.Range
module Config = P2prange.Config
module Simulation = P2prange.Simulation
module Scalability = P2prange.Scalability

open Cmdliner

(* --- shared options --- *)

let seed_t =
  let doc = "PRNG seed; every experiment is deterministic given the seed." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let json_t =
  let doc =
    "Enable the metrics registry and write its snapshot (counters, gauges, \
     histograms — hops, messages, cache hit rates) to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trace_t =
  let doc =
    "Enable the tracing plane and write the recorded spans to $(docv) \
     (Chrome trace-event JSON for .json paths, JSONL otherwise; analyze \
     with trace.exe)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let series_t =
  let doc =
    "Enable the metric-timeline plane and write the windowed series \
     (logical-clock points and marks) to $(docv) (Prometheus text for .prom \
     paths, JSONL otherwise; analyze with timeline.exe)."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

let with_json json trace series command f =
  Obs.Report.with_json ~json ~trace ~series command f

let family_t =
  let parse s =
    match Lsh.Family.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown family %S" s))
  in
  let print ppf k = Format.pp_print_string ppf (Lsh.Family.kind_name k) in
  let family_conv = Arg.conv (parse, print) in
  let doc =
    "Hash family: min-wise, approx-min-wise, linear, or random-tabulated."
  in
  Arg.(
    value
    & opt family_conv Lsh.Family.Approx_minwise
    & info [ "family" ] ~docv:"FAMILY" ~doc)

let queries_t =
  let doc = "Number of queries in the stream." in
  Arg.(value & opt int 10_000 & info [ "queries"; "n" ] ~docv:"N" ~doc)

let peers_t =
  let doc = "Number of peers." in
  Arg.(value & opt int 100 & info [ "peers" ] ~docv:"N" ~doc)

let k_t = Arg.(value & opt int 20 & info [ "k" ] ~docv:"K" ~doc:"Hash functions per group.")
let l_t = Arg.(value & opt int 5 & info [ "l" ] ~docv:"L" ~doc:"Number of groups.")

let domain_hi_t =
  let doc = "Attribute domain is [0, HI]." in
  Arg.(value & opt int 1000 & info [ "domain" ] ~docv:"HI" ~doc)

let matching_t =
  let doc = "Bucket matching policy: jaccard or containment." in
  let matching_conv =
    Arg.conv
      ( (function
        | "jaccard" -> Ok Config.Jaccard_match
        | "containment" -> Ok Config.Containment_match
        | s -> Error (`Msg (Printf.sprintf "unknown matching %S" s))),
        fun ppf m ->
          Format.pp_print_string ppf
            (match m with
            | Config.Jaccard_match -> "jaccard"
            | Config.Containment_match -> "containment") )
  in
  Arg.(
    value
    & opt matching_conv Config.Jaccard_match
    & info [ "matching" ] ~docv:"POLICY" ~doc)

let padding_t =
  let doc = "Query padding fraction (0 disables; the paper's Fig. 10 uses 0.2)." in
  Arg.(value & opt float 0.0 & info [ "padding" ] ~docv:"FRACTION" ~doc)

let adaptive_t =
  let doc = "Use adaptive padding targeting this recall (overrides --padding)." in
  Arg.(value & opt (some float) None & info [ "adaptive-padding" ] ~docv:"TARGET" ~doc)

let peer_index_t =
  let doc = "Enable the per-peer index of §5.3 (each contacted peer searches all its buckets)." in
  Arg.(value & flag & info [ "peer-index" ] ~doc)

let nodes_t =
  let doc = "Number of Chord nodes." in
  Arg.(value & opt int 1000 & info [ "nodes" ] ~docv:"N" ~doc)

let build_config family k l domain_hi matching padding adaptive peer_index =
  let padding =
    match adaptive with
    | Some target_recall ->
      Config.Adaptive_padding { initial = 0.0; step = 0.01; target_recall }
    | None -> if padding = 0.0 then Config.No_padding else Config.Fixed_padding padding
  in
  Config.default
  |> Config.with_family family
  |> Config.with_kl ~k ~l
  |> Config.with_domain (Range.make ~lo:0 ~hi:domain_hi)
  |> Config.with_matching matching
  |> Config.with_padding padding
  |> Config.with_peer_index peer_index

(* --- quality command (figures 6-10) --- *)

let run_quality json trace series seed family queries peers k l domain_hi
    matching padding adaptive peer_index =
  with_json json trace series "quality" @@ fun () ->
  let config = build_config family k l domain_hi matching padding adaptive peer_index in
  let run = Simulation.run ~config ~n_peers:peers ~n_queries:queries ~seed () in
  Format.printf "family=%s k=%d l=%d queries=%d peers=%d@."
    (Lsh.Family.kind_name family) k l queries peers;
  Format.printf "@.match similarity histogram (measured queries):@.";
  Format.printf "%a" (Stats.Histogram.pp_ascii ~width:40)
    (Simulation.similarity_histogram run);
  let cdf = Simulation.recall_cdf run in
  Format.printf "@.recall:@.";
  List.iter
    (fun x ->
      Format.printf "  >= %.1f : %6.2f%%@." x (Stats.Cdf.percent_at_least cdf x))
    [ 1.0; 0.9; 0.8; 0.5; 0.2 ];
  Format.printf
    "@.complete: %.1f%%  unmatched: %.1f%%  mean hops/lookup: %.2f  mean msgs/query: %.1f@."
    (100.0 *. Simulation.fraction_complete run)
    (100.0 *. Simulation.fraction_unmatched run)
    (Simulation.mean_hops run) (Simulation.mean_messages run)

let quality_cmd =
  let term =
    Term.(
      const run_quality $ json_t $ trace_t $ series_t $ seed_t $ family_t
      $ queries_t
      $ peers_t $ k_t $ l_t $ domain_hi_t $ matching_t $ padding_t
      $ adaptive_t $ peer_index_t)
  in
  Cmd.v
    (Cmd.info "quality"
       ~doc:"Match-quality experiment (Figures 6-10): stream queries through \
             an initially empty system and report similarity and recall.")
    term

(* --- load command (figure 11) --- *)

let run_load json trace series seed nodes unique =
  with_json json trace series "load" @@ fun () ->
  let workload = Scalability.make_workload ~unique_partitions:unique ~seed () in
  let p = Scalability.load_distribution workload ~n_nodes:nodes ~seed in
  let s = p.Scalability.per_node in
  Format.printf
    "nodes=%d stored=%d (unique=%d x l)@.mean/node=%.2f p1=%.0f median=%.0f p99=%.0f max=%.0f empty=%d@."
    nodes p.Scalability.n_partitions_stored unique (Stats.Summary.mean s)
    (Stats.Summary.p1 s) (Stats.Summary.median s) (Stats.Summary.p99 s)
    (Stats.Summary.max s) p.Scalability.empty_nodes

let load_cmd =
  let unique_t =
    Arg.(value & opt int 10_000 & info [ "unique" ] ~docv:"N"
           ~doc:"Unique partitions (each stored under l identifiers).")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Partition load distribution over the ring (Figure 11).")
    Term.(
      const run_load $ json_t $ trace_t $ series_t $ seed_t $ nodes_t
      $ unique_t)

(* --- paths command (figure 12) --- *)

let run_paths json trace series seed nodes lookups histogram =
  with_json json trace series "paths" @@ fun () ->
  let workload = Scalability.make_workload ~unique_partitions:2000 ~seed () in
  Format.printf "nodes=%d lookups=%d (x l identifier routes)@." nodes lookups;
  (* Same ring, same lookup stream, once per routing substrate: figure 12
     for Chord, and the learned index's flat profile next to it. *)
  List.iter
    (fun (label, substrate) ->
      let p =
        Scalability.path_lengths workload ~n_lookups:lookups ~substrate
          ~n_nodes:nodes ~seed ()
      in
      let s = p.Scalability.hops in
      Format.printf
        "%-8s mean=%.2f p1=%.0f median=%.0f p99=%.0f  (1/2 log2 N = %.2f)@."
        label (Stats.Summary.mean s) (Stats.Summary.p1 s)
        (Stats.Summary.median s) (Stats.Summary.p99 s)
        (0.5 *. (log (float_of_int nodes) /. log 2.0));
      if histogram then begin
        Format.printf "@.%s path-length PDF:@." label;
        Format.printf "%a"
          (Stats.Histogram.pp_ascii ~width:40)
          p.Scalability.distribution
      end)
    [
      ("chord", Config.Chord);
      ("learned", Config.Learned Config.default_learned);
    ]

let paths_cmd =
  let lookups_t =
    Arg.(value & opt int 10_000 & info [ "lookups" ] ~docv:"N"
           ~doc:"Number of range lookups.")
  in
  let histogram_t =
    Arg.(value & flag & info [ "histogram" ] ~doc:"Also print the PDF (Figure 12b).")
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Lookup path lengths over the Chord ring (Figure 12).")
    Term.(
      const run_paths $ json_t $ trace_t $ series_t $ seed_t $ nodes_t
      $ lookups_t $ histogram_t)

(* --- hash command (figure 5) --- *)

let run_hash seed sizes =
  let universe = 2 * List.fold_left Stdlib.max 16 sizes in
  let rng = Prng.Splitmix.create seed in
  let schemes =
    List.map
      (fun kind -> (kind, Lsh.Scheme.create ~universe kind ~k:20 ~l:5 rng))
      Lsh.Family.all_kinds
  in
  Format.printf "size";
  List.iter
    (fun (kind, _) -> Format.printf "  %s(ms)" (Lsh.Family.kind_name kind))
    schemes;
  Format.printf "@.";
  List.iter
    (fun size ->
      let range = Range.make ~lo:0 ~hi:(size - 1) in
      Format.printf "%4d" size;
      List.iter
        (fun (_, scheme) ->
          let t0 = Unix.gettimeofday () in
          let reps = 3 in
          for _ = 1 to reps do
            ignore (Lsh.Scheme.identifiers_of_range scheme range : int list)
          done;
          Format.printf "  %.4f"
            ((Unix.gettimeofday () -. t0) /. float_of_int reps *. 1000.0))
        schemes;
      Format.printf "@.")
    sizes

let hash_cmd =
  let sizes_t =
    Arg.(value & opt (list int) [ 10; 100; 500; 1000; 1500 ]
           & info [ "sizes" ] ~docv:"SIZES" ~doc:"Range sizes to time.")
  in
  Cmd.v
    (Cmd.info "hash"
       ~doc:
         "Hash-family execution time vs range size, as the program hashes \
          (the fig5 bench section times the paper's Figure 5 evaluator).")
    Term.(const run_hash $ seed_t $ sizes_t)

(* --- latency command (timed replay) --- *)

let run_latency json trace series seed peers queries rate spread =
  with_json json trace series "latency" @@ fun () ->
  let config =
    Config.default
    |> Config.with_matching Config.Containment_match
    |> Config.with_spread_identifiers spread
  in
  let system = P2prange.System.create ~config ~seed ~n_peers:peers () in
  let timed = P2prange.Timed.create ~system ~seed () in
  let rng = Prng.Splitmix.create seed in
  let stream =
    Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
      ~domain:config.Config.domain ~seed
  in
  let clock = ref 0.0 in
  for _ = 1 to queries do
    let u = 1.0 -. Prng.Splitmix.float rng in
    clock := !clock +. (-.log u *. 1000.0 /. rate);
    let from = P2prange.System.random_peer system rng in
    P2prange.Timed.submit timed ~at:!clock ~from
      (Workload.Query_workload.next stream)
  done;
  P2prange.Timed.run timed;
  let s = Stats.Summary.of_list (List.map snd (P2prange.Timed.completed timed)) in
  Format.printf
    "peers=%d queries=%d rate=%.0f/s spread=%b@.latency ms: mean=%.0f p50=%.0f p99=%.0f max=%.0f@."
    peers queries rate spread (Stats.Summary.mean s) (Stats.Summary.median s)
    (Stats.Summary.p99 s) (Stats.Summary.max s);
  (match P2prange.Timed.busiest_peer timed with
  | Some (name, ms) ->
    Format.printf "busiest peer: %s with %.0f ms of service (utilization %.2f)@."
      name ms
      (P2prange.Timed.utilization timed ~horizon_ms:!clock)
  | None -> ())

let latency_cmd =
  let rate_t =
    Arg.(value & opt float 50.0
           & info [ "rate" ] ~docv:"QPS" ~doc:"Query arrival rate (Poisson).")
  in
  let spread_t =
    Arg.(value & flag
           & info [ "spread" ] ~doc:"Apply the Mix32 identifier bijection.")
  in
  let queries_small_t =
    Arg.(value & opt int 3000 & info [ "queries"; "n" ] ~docv:"N"
           ~doc:"Number of queries.")
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"Discrete-event latency replay under Poisson load (with per-peer \
             FIFO queueing).")
    Term.(
      const run_latency $ json_t $ trace_t $ series_t $ seed_t $ peers_t
      $ queries_small_t $ rate_t $ spread_t)

(* --- amplify command --- *)

let run_amplify k l =
  Format.printf "p -> 1 - (1 - p^%d)^%d@." k l;
  List.iter
    (fun p ->
      Format.printf "  %.2f : %.4f@." p (Lsh.Scheme.amplification ~k ~l p))
    [ 0.5; 0.6; 0.7; 0.75; 0.8; 0.85; 0.9; 0.925; 0.95; 0.975; 0.99; 1.0 ]

let amplify_cmd =
  Cmd.v
    (Cmd.info "amplify"
       ~doc:"Print the (k, l) amplification curve 1-(1-p^k)^l (§4).")
    Term.(const run_amplify $ k_t $ l_t)

let main_cmd =
  let doc =
    "Reproduction driver for 'Approximate Range Selection Queries in \
     Peer-to-Peer Systems' (CIDR 2003)."
  in
  Cmd.group (Cmd.info "repro" ~version:"1.0.0" ~doc)
    [ quality_cmd; load_cmd; paths_cmd; hash_cmd; latency_cmd; amplify_cmd ]

let () = exit (Cmd.eval main_cmd)
