(* Reproduction harness: one section per figure of the paper's §5, plus the
   ablations called out in DESIGN.md. Running with no arguments executes
   everything; passing section names (e.g. `fig6a fig12b ablation-kl`) runs a
   subset. Output is a sequence of labelled ASCII tables whose series
   correspond one-to-one with the paper's plots; EXPERIMENTS.md records the
   paper-vs-measured comparison. A name that matches no section exits 2.

   The `Obs` metrics registry is on in every run and snapshotted per
   section (counters are reset between sections): tables and gates read
   its counters. `--json FILE` writes the snapshots as one machine-readable
   JSON document covering every section that ran — the perf trajectory
   later optimisation PRs are judged against.

   Sections that reproduce a claim gate it where they compute it. A failed
   gate prints its message to stderr and the run carries on; the bench
   writes every requested file, then exits 1. *)

module Range = Rangeset.Range
module Config = P2prange.Config
module Simulation = P2prange.Simulation
module Query_result = P2prange.Query_result
module Scalability = P2prange.Scalability

let seed = 42L

let json_path, trace_path, series_path, section_filter =
  let json = ref None and trace = ref None and series = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
      json := Some path;
      parse acc rest
    | [ "--json" ] ->
      prerr_endline "bench: --json requires a file argument";
      exit 2
    | "--trace" :: path :: rest ->
      trace := Some path;
      parse acc rest
    | [ "--trace" ] ->
      prerr_endline "bench: --trace requires a file argument";
      exit 2
    | "--series" :: path :: rest ->
      series := Some path;
      parse acc rest
    | [ "--series" ] ->
      prerr_endline "bench: --series requires a file argument";
      exit 2
    | "--only" :: rest -> parse acc rest (* explicit marker; names filter *)
    | arg :: rest -> parse (arg :: acc) rest
  in
  let sections = parse [] (List.tl (Array.to_list Sys.argv)) in
  (!json, !trace, !series, sections)

let () = Obs.Metrics.enable ()
let () = if trace_path <> None then Obs.Trace.enable ()
let () = if series_path <> None then Obs.Series.enable ()

(* (section name, metrics snapshot + derived rates), in run order. *)
let json_sections : (string * Obs.Json.t) list ref = ref []

let heading fmt =
  Format.kasprintf
    (fun s ->
      Format.printf "@.=== %s ===@." s;
      Format.printf "%s@." (String.make (String.length s + 8) '-'))
    fmt

let gates_failed = ref false

(* [gate ok fmt ...]: when [ok] is false, print the message to stderr and
   mark the run failed. *)
let gate ok fmt =
  Format.kasprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("bench: " ^ msg);
        gates_failed := true
      end)
    fmt

(* A section's headline values, each recorded under its gauge name so the
   JSON document carries them. *)
let record_gauges pairs =
  List.iter
    (fun (name, value) -> Obs.Metrics.set_gauge (Obs.Metrics.gauge name) value)
    pairs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Ratios the raw counters imply; null until the section exercises them. *)
let derived_metrics () =
  let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let rate num den =
    if den = 0 then Obs.Json.Null
    else Obs.Json.Float (float_of_int num /. float_of_int den)
  in
  let hit = c "lsh.domain_cache.hit" and miss = c "lsh.domain_cache.miss" in
  let from_cache = c "engine.leaf.from_cache"
  and from_source = c "engine.leaf.from_source" in
  Obs.Json.Obj
    [
      ("lsh_cache_hit_rate", rate hit (hit + miss));
      ("engine_cache_rate", rate from_cache (from_cache + from_source));
      ("total_messages", Obs.Json.Int (c "chord.ring.messages"));
    ]

let run_section (name, title, f) =
  heading "%s — %s" name title;
  (* Section boundaries land on the metric timeline so a multi-section
     series file stays attributable. *)
  Obs.Series.mark_s "bench.section" "name" name;
  Obs.Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  f ();
  let elapsed = Unix.gettimeofday () -. t0 in
  let snapshot =
    Obs.Json.Obj
      [
        ("wall_clock_s", Obs.Json.Float elapsed);
        ("derived", derived_metrics ());
        ("metrics", Obs.Metrics.snapshot ());
      ]
  in
  json_sections := (name, snapshot) :: !json_sections

(* ------------------------------------------------------------------ *)
(* Figure 5: execution time of the hash-function families vs range size *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Mean wall-clock milliseconds per call of [once]. Repetitions adapt so
   fast kernels still get stable numbers. They run with the Metrics plane
   off: how many fit in the time varies between runs, and the section's
   counters must not. *)
let time_ms once =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.disable ();
  Fun.protect ~finally:(fun () -> if was_enabled then Obs.Metrics.enable ())
  @@ fun () ->
  once () (* warm-up *);
  let reps = ref 1 and elapsed = ref (time_once once) in
  while !elapsed < 0.05 do
    let n = !reps * 4 in
    let t = time_once (fun () -> for _ = 1 to n do once () done) in
    reps := !reps + n;
    elapsed := !elapsed +. t
  done;
  !elapsed /. float_of_int !reps *. 1000.0

let fig5_sizes = [ 10; 50; 100; 200; 400; 600; 800; 1000; 1200; 1500 ]

(* Ranges start off zero: a bit network fixes 0, so every range holding 0
   min-hashes to 0 and the compiled-vs-reference check would be vacuous.
   The largest range still ends inside the linear family's universe. *)
let fig5_universe = 2048
let fig5_range size = Range.make ~lo:547 ~hi:(547 + size - 1)

let reference_min perm range =
  Range.fold_values
    (fun best v -> Stdlib.min best (Lsh.Bit_perm.apply_reference perm v))
    max_int range

let compiled_min perm range =
  Lsh.Bit_perm.range_min perm ~lo:(Range.lo range) ~hi:(Range.hi range)

(* The l·k = 100 functions of each family, drawn in the order
   Scheme.create would draw them: the two bit networks first, as bare
   permutations so both evaluators can run them. *)
let fig5_families () =
  let rng = Prng.Splitmix.create seed in
  let networks ?levels () =
    Array.init 100 (fun _ -> Lsh.Bit_perm.random ~bits:32 ?levels rng)
  in
  let exact = networks () in
  let approx = networks ~levels:1 () in
  let linear =
    Lsh.Scheme.create ~universe:fig5_universe Lsh.Family.Linear ~k:20 ~l:5 rng
  in
  (exact, approx, linear)

(* Each column computes all 100 min-hashes of one range. The paper's
   columns evaluate the bit networks level by level at every value, the
   quantity its Figure 5 plots; the compiled columns are what the program
   runs. *)
let fig5_columns (exact, approx, linear) =
  let all_mins min_of perms range () =
    Array.iter (fun perm -> ignore (min_of perm range : int)) perms
  in
  [
    ("min-wise", all_mins reference_min exact);
    ("approx-min-wise", all_mins reference_min approx);
    ( "linear",
      fun range () ->
        ignore (Lsh.Scheme.identifiers_of_range linear range : int list) );
    ("min-wise compiled", all_mins compiled_min exact);
    ("approx compiled", all_mins compiled_min approx);
  ]

(* Gated: every compiled min-hash must equal the reference for each
   (size, function) pair the section times. *)
let fig5 () =
  let ((exact, approx, _) as families) = fig5_families () in
  let columns = fig5_columns families in
  let checked = ref 0 and mismatches = ref 0 in
  let check_compiled size range =
    Array.iteri
      (fun i perm ->
        let expected = reference_min perm range in
        let got = compiled_min perm range in
        incr checked;
        if got <> expected then incr mismatches;
        gate (got = expected)
          "fig5: compiled min-hash %d differs from the reference %d (size %d, \
           %s function %d)"
          got expected size
          (if Lsh.Bit_perm.levels perm = 1 then "approx" else "min-wise")
          i)
  in
  let table =
    Stats.Table.create
      ~columns:
        (("range size", Stats.Table.Right)
        :: List.map
             (fun (name, _) -> (name ^ " (ms)", Stats.Table.Right))
             columns)
  in
  let measurements =
    List.map
      (fun size ->
        let range = fig5_range size in
        check_compiled size range exact;
        check_compiled size range approx;
        (size, List.map (fun (_, time) -> time_ms (time range)) columns))
      fig5_sizes
  in
  List.iter
    (fun (size, times) ->
      Stats.Table.add_row table
        (Printf.sprintf "%d" size :: List.map (Printf.sprintf "%.4f") times))
    measurements;
  Format.printf "%a" Stats.Table.pp table;
  let series_for index label glyph =
    {
      Stats.Plot.label;
      glyph;
      points =
        List.map
          (fun (size, times) -> (float_of_int size, List.nth times index))
          measurements;
    }
  in
  Format.printf "@.%s"
    (Stats.Plot.render ~y_scale:Stats.Plot.Log10 ~x_label:"range size"
       ~y_label:"ms per range (log)"
       [
         series_for 0 "min-wise" 'm';
         series_for 1 "approx-min-wise" 'a';
         series_for 2 "linear" 'l';
         series_for 3 "min-wise compiled" 'c';
       ]);
  (* Headline ratios at size 1000, as the paper reports ("linear ~1000x,
     approx ~10x faster than min-wise"). *)
  let at_1000 = Array.of_list (List.assoc 1000 measurements) in
  Format.printf
    "speedup vs min-wise at size 1000: approx %.1fx, linear %.1fx@."
    (at_1000.(0) /. at_1000.(1)) (at_1000.(0) /. at_1000.(2));
  Format.printf
    "compiled at size 1000: min-wise %.0fx, approx %.0fx faster than the \
     level-by-level network@."
    (at_1000.(0) /. at_1000.(3)) (at_1000.(1) /. at_1000.(4));
  if !mismatches = 0 then
    Format.printf
      "compiled min-hash = reference for all %d (size, function) pairs@."
      !checked

(* Bechamel micro-benchmarks for the same columns (size 1000), giving
   OLS-estimated per-call times with GC stabilization. *)
let fig5_bechamel () =
  let open Bechamel in
  let range = fig5_range 1000 in
  let tests =
    List.map
      (fun (name, time) -> Test.make ~name (Staged.stage (time range)))
      (fig5_columns (fig5_families ()))
  in
  let grouped = Test.make_grouped ~name:"hash-range-1000" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Stats.Table.create
      ~columns:
        [ ("benchmark", Stats.Table.Left); ("time/call (ms)", Stats.Table.Right);
          ("r²", Stats.Table.Right) ]
  in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.4f" (e /. 1e6)
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      Stats.Table.add_row table [ name; estimate; r2 ])
    results;
  Format.printf "%a" Stats.Table.pp table

(* ------------------------------------------------------------------ *)
(* Figures 6–10: match quality of the protocol                          *)
(* ------------------------------------------------------------------ *)

let quality_run ?(config = Config.default) () =
  Simulation.run ~config ~n_peers:100 ~n_queries:10_000 ~seed ()

let print_similarity_histogram run =
  let h = Simulation.similarity_histogram run in
  Format.printf "%a" (Stats.Histogram.pp_ascii ~width:40) h;
  Format.printf
    "complete answers: %.1f%%   unmatched: %.1f%%   mean hops/lookup: %.2f@."
    (100.0 *. Simulation.fraction_complete run)
    (100.0 *. Simulation.fraction_unmatched run)
    (Simulation.mean_hops run)

let recall_thresholds = [ 1.0; 0.9; 0.8; 0.7; 0.6; 0.5; 0.4; 0.3; 0.2; 0.1; 0.0 ]

let recall_table runs =
  (* One column per labelled run: percentage of queries with recall >= x. *)
  let table =
    Stats.Table.create
      ~columns:
        (("recall >=", Stats.Table.Right)
        :: List.map (fun (label, _) -> (label ^ " (%)", Stats.Table.Right)) runs)
  in
  let cdfs = List.map (fun (_, run) -> Simulation.recall_cdf run) runs in
  List.iter
    (fun x ->
      Stats.Table.add_row table
        (Printf.sprintf "%.1f" x
        :: List.map
             (fun cdf -> Printf.sprintf "%.1f" (Stats.Cdf.percent_at_least cdf x))
             cdfs))
    recall_thresholds;
  Format.printf "%a" Stats.Table.pp table;
  (* The paper plots these right-to-left: x = part of query answered,
     y = % of queries with at least that recall. *)
  let glyphs = [ '*'; 'o'; '+'; 'x' ] in
  let plot_series =
    List.mapi
      (fun i ((label, _), cdf) ->
        {
          Stats.Plot.label;
          glyph = List.nth glyphs (i mod List.length glyphs);
          points =
            List.map (fun x -> (x, Stats.Cdf.percent_at_least cdf x)) recall_thresholds;
        })
      (List.combine runs cdfs)
  in
  Format.printf "@.%s"
    (Stats.Plot.render ~x_label:"part of query answered (recall >= x)"
       ~y_label:"% of queries" plot_series)

let family_run =
  (* Memoized per family: figs 6a/6b/7/8 share these three runs. *)
  let cache = Hashtbl.create 3 in
  fun family ->
    match Hashtbl.find_opt cache family with
    | Some run -> run
    | None ->
      let run = quality_run ~config:(Config.paper_quality ~family) () in
      Hashtbl.replace cache family run;
      run

let fig6a () = print_similarity_histogram (family_run Lsh.Family.Exact_minwise)
let fig6b () = print_similarity_histogram (family_run Lsh.Family.Approx_minwise)
let fig7 () = print_similarity_histogram (family_run Lsh.Family.Linear)

let fig8 () =
  recall_table
    (List.map
       (fun kind -> (Lsh.Family.kind_name kind, family_run kind))
       Lsh.Family.all_kinds)

let fig9 () =
  let containment =
    quality_run
      ~config:(Config.default |> Config.with_matching Config.Containment_match)
      ()
  in
  recall_table
    [
      ("containment", containment);
      ("jaccard", family_run Lsh.Family.Approx_minwise);
    ]

let fig10 () =
  let padded =
    quality_run
      ~config:
        (Config.default
        |> Config.with_matching Config.Containment_match
        |> Config.with_padding (Config.Fixed_padding 0.2))
      ()
  in
  let unpadded =
    quality_run
      ~config:(Config.default |> Config.with_matching Config.Containment_match)
      ()
  in
  recall_table [ ("20% padding", padded); ("no padding", unpadded) ]

(* ------------------------------------------------------------------ *)
(* Figures 11–12: scalability                                           *)
(* ------------------------------------------------------------------ *)

let node_counts = [ 100; 200; 500; 1000; 2000; 5000 ]

(* Hashing the 24-bit-domain workload is the expensive step; build the
   largest one lazily and share it (and its truncations) across figures. *)
let big_workload =
  let w = ref None in
  fun () ->
    match !w with
    | Some workload -> workload
    | None ->
      let workload =
        Scalability.make_workload ~unique_partitions:36_000 ~seed ()
      in
      w := Some workload;
      workload

let paper_workload () = Scalability.truncate (big_workload ()) 10_000

let fig11a () =
  let workload = paper_workload () in
  let table =
    Stats.Table.create
      ~columns:
        [ ("nodes", Stats.Table.Right); ("stored", Stats.Table.Right);
          ("mean/node", Stats.Table.Right); ("p1", Stats.Table.Right);
          ("p99", Stats.Table.Right); ("empty nodes", Stats.Table.Right) ]
  in
  List.iter
    (fun n_nodes ->
      let p = Scalability.load_distribution workload ~n_nodes ~seed in
      let s = p.Scalability.per_node in
      Stats.Table.add_row table
        [
          string_of_int n_nodes;
          string_of_int p.Scalability.n_partitions_stored;
          Printf.sprintf "%.1f" (Stats.Summary.mean s);
          Printf.sprintf "%.0f" (Stats.Summary.p1 s);
          Printf.sprintf "%.0f" (Stats.Summary.p99 s);
          string_of_int p.Scalability.empty_nodes;
        ])
    node_counts;
  Format.printf "%a" Stats.Table.pp table

let fig11b () =
  let table =
    Stats.Table.create
      ~columns:
        [ ("stored (x1000)", Stats.Table.Right); ("mean/node", Stats.Table.Right);
          ("p1", Stats.Table.Right); ("p99", Stats.Table.Right) ]
  in
  List.iter
    (fun total ->
      let workload = Scalability.truncate (big_workload ()) (total / 5) in
      let p = Scalability.load_distribution workload ~n_nodes:1000 ~seed in
      let s = p.Scalability.per_node in
      Stats.Table.add_row table
        [
          Printf.sprintf "%d" (total / 1000);
          Printf.sprintf "%.1f" (Stats.Summary.mean s);
          Printf.sprintf "%.0f" (Stats.Summary.p1 s);
          Printf.sprintf "%.0f" (Stats.Summary.p99 s);
        ])
    [ 35_000; 50_000; 75_000; 100_000; 140_000; 180_000 ];
  Format.printf "%a" Stats.Table.pp table

let fig12a () =
  let workload = paper_workload () in
  let table =
    Stats.Table.create
      ~columns:
        [ ("nodes", Stats.Table.Right); ("mean hops", Stats.Table.Right);
          ("p1", Stats.Table.Right); ("p99", Stats.Table.Right);
          ("half log2 N", Stats.Table.Right) ]
  in
  List.iter
    (fun n_nodes ->
      let p = Scalability.path_lengths workload ~n_nodes ~seed () in
      let s = p.Scalability.hops in
      Stats.Table.add_row table
        [
          string_of_int n_nodes;
          Printf.sprintf "%.2f" (Stats.Summary.mean s);
          Printf.sprintf "%.0f" (Stats.Summary.p1 s);
          Printf.sprintf "%.0f" (Stats.Summary.p99 s);
          Printf.sprintf "%.2f" (0.5 *. (log (float_of_int n_nodes) /. log 2.0));
        ])
    node_counts;
  Format.printf "%a" Stats.Table.pp table

let fig12b () =
  let p = Scalability.path_lengths (paper_workload ()) ~n_nodes:1000 ~seed () in
  Format.printf "PDF of lookup path length, 1000-node network:@.";
  Format.printf "%a" (Stats.Histogram.pp_ascii ~width:40) p.Scalability.distribution

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

(* Bucket-level mini-protocol, bypassing Chord: stream ranges, look up each
   range's identifiers in a bucket table, record the best Jaccard match,
   then cache. Used where the ablation only concerns the hashing layer. *)
let bucket_protocol scheme ranges =
  let buckets : (int, Range.t list) Hashtbl.t = Hashtbl.create 4096 in
  let matched = ref 0 and total = ref 0 and similarity_sum = ref 0.0 in
  List.iter
    (fun range ->
      incr total;
      let ids = Lsh.Scheme.identifiers_of_range scheme range in
      let candidates =
        List.concat_map
          (fun id -> Option.value (Hashtbl.find_opt buckets id) ~default:[])
          ids
      in
      let best =
        List.fold_left
          (fun acc r -> Stdlib.max acc (Range.jaccard range r))
          0.0 candidates
      in
      if best > 0.0 then begin
        incr matched;
        similarity_sum := !similarity_sum +. best
      end;
      if best < 1.0 then
        List.iter
          (fun id ->
            let existing = Option.value (Hashtbl.find_opt buckets id) ~default:[] in
            if not (List.exists (Range.equal range) existing) then
              Hashtbl.replace buckets id (range :: existing))
          ids)
    ranges;
  let matched_f = float_of_int !matched in
  ( float_of_int !matched /. float_of_int !total,
    if !matched = 0 then 0.0 else !similarity_sum /. matched_f )

let ablation_combine () =
  let domain = Config.default.Config.domain in
  let workload =
    Workload.Query_workload.create Workload.Query_workload.Uniform_pairs ~domain
      ~seed:7L
  in
  let ranges = Workload.Query_workload.take workload 5000 in
  let table =
    Stats.Table.create
      ~columns:
        [ ("combining", Stats.Table.Left); ("match rate (%)", Stats.Table.Right);
          ("mean match similarity", Stats.Table.Right) ]
  in
  List.iter
    (fun (label, combine) ->
      let scheme =
        Lsh.Scheme.create ~universe:1001 ~combine Lsh.Family.Approx_minwise
          ~k:20 ~l:5 (Prng.Splitmix.create seed)
      in
      let rate, sim = bucket_protocol scheme ranges in
      Stats.Table.add_row table
        [ label; Printf.sprintf "%.1f" (100.0 *. rate); Printf.sprintf "%.3f" sim ])
    [ ("xor (paper)", Lsh.Scheme.Xor); ("sum mod 2^32", Lsh.Scheme.Sum_mod) ];
  Format.printf "%a" Stats.Table.pp table

let ablation_kl () =
  (* Collision-probability profile plus realized quality for several (k, l). *)
  let profile =
    Stats.Table.create
      ~columns:
        (("p (jaccard)", Stats.Table.Right)
        :: List.map
             (fun (k, l) -> (Printf.sprintf "k=%d,l=%d" k l, Stats.Table.Right))
             [ (5, 3); (10, 5); (20, 5); (30, 7) ])
  in
  List.iter
    (fun p ->
      Stats.Table.add_row profile
        (Printf.sprintf "%.2f" p
        :: List.map
             (fun (k, l) ->
               Printf.sprintf "%.3f" (Lsh.Scheme.amplification ~k ~l p))
             [ (5, 3); (10, 5); (20, 5); (30, 7) ]))
    [ 0.5; 0.7; 0.8; 0.85; 0.9; 0.95; 0.99 ];
  Format.printf "%a@." Stats.Table.pp profile;
  let table =
    Stats.Table.create
      ~columns:
        [ ("(k, l)", Stats.Table.Left); ("complete (%)", Stats.Table.Right);
          ("unmatched (%)", Stats.Table.Right);
          ("mean recall", Stats.Table.Right) ]
  in
  List.iter
    (fun (k, l) ->
      let config = Config.default |> Config.with_kl ~k ~l in
      let run = Simulation.run ~config ~n_peers:100 ~n_queries:3000 ~seed () in
      let mean_recall = mean (Simulation.recalls run) in
      Stats.Table.add_row table
        [
          Printf.sprintf "(%d, %d)" k l;
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_complete run);
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_unmatched run);
          Printf.sprintf "%.3f" mean_recall;
        ])
    [ (5, 3); (10, 5); (20, 5); (30, 7) ];
  Format.printf "%a" Stats.Table.pp table

let ablation_padding () =
  let table =
    Stats.Table.create
      ~columns:
        [ ("padding", Stats.Table.Left); ("complete (%)", Stats.Table.Right);
          ("mean recall", Stats.Table.Right);
          ("final fraction", Stats.Table.Right) ]
  in
  let cases =
    [
      ("none", Config.No_padding);
      ("fixed 10%", Config.Fixed_padding 0.1);
      ("fixed 20% (paper)", Config.Fixed_padding 0.2);
      ("fixed 40%", Config.Fixed_padding 0.4);
      ( "adaptive (target 0.95)",
        Config.Adaptive_padding { initial = 0.0; step = 0.01; target_recall = 0.95 } );
    ]
  in
  List.iter
    (fun (label, padding) ->
      let config =
        Config.default
        |> Config.with_padding padding
        |> Config.with_matching Config.Containment_match
      in
      let run = Simulation.run ~config ~n_peers:100 ~n_queries:5000 ~seed () in
      let mean_recall = mean (Simulation.recalls run) in
      (* The run does not expose the adaptive controller's last level, so
         this column shows a static policy's configured fraction and
         "adaptive" for the controller. *)
      let final =
        match padding with
        | Config.No_padding -> "0.00"
        | Config.Fixed_padding f -> Printf.sprintf "%.2f" f
        | Config.Adaptive_padding _ -> "adaptive"
      in
      Stats.Table.add_row table
        [
          label;
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_complete run);
          Printf.sprintf "%.3f" mean_recall;
          final;
        ])
    cases;
  Format.printf "%a" Stats.Table.pp table

let ablation_peer_index () =
  (* §5.3's per-peer index: searching every bucket a peer owns instead of
     only the looked-up one. Smaller query count: the linear scan over all
     of a peer's entries is O(entries) per contact by design. *)
  let table =
    Stats.Table.create
      ~columns:
        [ ("mode", Stats.Table.Left); ("complete (%)", Stats.Table.Right);
          ("unmatched (%)", Stats.Table.Right) ]
  in
  List.iter
    (fun (label, peer_index) ->
      let config =
        Config.default
        |> Config.with_peer_index peer_index
        |> Config.with_matching Config.Containment_match
      in
      let run = Simulation.run ~config ~n_peers:100 ~n_queries:2000 ~seed () in
      Stats.Table.add_row table
        [
          label;
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_complete run);
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_unmatched run);
        ])
    [ ("bucket only (paper default)", false); ("per-peer index (§5.3)", true) ];
  Format.printf "%a" Stats.Table.pp table

let ablation_eviction () =
  (* Bounded per-peer caches: how much quality survives as capacity drops?
     (The paper caches without bound; a deployment cannot.) *)
  let table =
    Stats.Table.create
      ~columns:
        [ ("per-peer capacity", Stats.Table.Left);
          ("complete (%)", Stats.Table.Right);
          ("unmatched (%)", Stats.Table.Right);
          ("evictions", Stats.Table.Right) ]
  in
  let cases =
    [
      ("unbounded (paper)", P2prange.Store.Unbounded);
      ("LRU 500", P2prange.Store.Lru 500);
      ("LRU 100", P2prange.Store.Lru 100);
      ("LRU 25", P2prange.Store.Lru 25);
      ("FIFO 100", P2prange.Store.Fifo 100);
    ]
  in
  List.iter
    (fun (label, store_policy) ->
      let config =
        Config.default
        |> Config.with_store_policy store_policy
        |> Config.with_matching Config.Containment_match
      in
      let run = Simulation.run ~config ~n_peers:100 ~n_queries:5000 ~seed () in
      (* The run reports no eviction count. The evictions column comes
         from a probe system with the same config and 5000 queries from
         its own uniform stream (seed 99), not from the run above. *)
      let evicted =
        let system = P2prange.System.create ~config ~seed ~n_peers:100 () in
        let rng = Prng.Splitmix.create 99L in
        let stream =
          Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
            ~domain:config.Config.domain ~seed:99L
        in
        for _ = 1 to 5000 do
          let from = P2prange.System.random_peer system rng in
          ignore
            (P2prange.System.query system ~from
               (Workload.Query_workload.next stream))
        done;
        P2prange.System.total_evictions system
      in
      Stats.Table.add_row table
        [
          label;
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_complete run);
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_unmatched run);
          string_of_int evicted;
        ])
    cases;
  Format.printf "%a" Stats.Table.pp table

let ablation_spread () =
  (* Bijective identifier spreading (Mix32): match quality is provably
     unchanged (collisions preserved), load balance transforms. *)
  let table =
    Stats.Table.create
      ~columns:
        [ ("placement", Stats.Table.Left); ("complete (%)", Stats.Table.Right);
          ("p99 load", Stats.Table.Right); ("max load", Stats.Table.Right);
          ("empty peers", Stats.Table.Right) ]
  in
  List.iter
    (fun (label, spread_identifiers) ->
      let config =
        Config.default
        |> Config.with_spread_identifiers spread_identifiers
        |> Config.with_matching Config.Containment_match
      in
      let run = Simulation.run ~config ~n_peers:100 ~n_queries:5000 ~seed () in
      (* Measure per-peer load on a replayed system with the same seed. *)
      let system = P2prange.System.create ~config ~seed ~n_peers:100 () in
      let rng = Prng.Splitmix.create 123L in
      let stream =
        Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
          ~domain:config.Config.domain ~seed:123L
      in
      for _ = 1 to 5000 do
        let from = P2prange.System.random_peer system rng in
        ignore
          (P2prange.System.query system ~from (Workload.Query_workload.next stream))
      done;
      let loads = List.map P2prange.Peer.load (P2prange.System.peers system) in
      let summary = Stats.Summary.of_int_list loads in
      Stats.Table.add_row table
        [
          label;
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_complete run);
          Printf.sprintf "%.0f" (Stats.Summary.p99 summary);
          Printf.sprintf "%.0f" (Stats.Summary.max summary);
          string_of_int (List.length (List.filter (( = ) 0) loads));
        ])
    [ ("raw identifiers (paper)", false); ("mixed identifiers (Mix32)", true) ];
  Format.printf "%a" Stats.Table.pp table

let ablation_family () =
  (* The three paper families against the exactly-min-wise-independent
     tabulated baseline. *)
  let table =
    Stats.Table.create
      ~columns:
        [ ("family", Stats.Table.Left); ("complete (%)", Stats.Table.Right);
          ("unmatched (%)", Stats.Table.Right);
          ("top-bucket sim (%)", Stats.Table.Right) ]
  in
  List.iter
    (fun family ->
      let run =
        Simulation.run
          ~config:(Config.paper_quality ~family)
          ~n_peers:100 ~n_queries:5000 ~seed ()
      in
      let pcts = Stats.Histogram.percentages (Simulation.similarity_histogram run) in
      Stats.Table.add_row table
        [
          Lsh.Family.kind_name family;
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_complete run);
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_unmatched run);
          Printf.sprintf "%.1f" pcts.(9);
        ])
    (Lsh.Family.all_kinds @ [ Lsh.Family.Random_tabulated ]);
  Format.printf "%a" Stats.Table.pp table

let ablation_latency () =
  (* Discrete-event replay under Poisson load: the Figure-11 imbalance in
     the time domain. Raw identifier placement funnels nearly every lookup
     through a couple of peers; once those saturate, tail latency explodes.
     The Mix32 bijection spreads the same work with identical match
     results. *)
  let n_queries = 3000 and n_peers = 100 in
  let table =
    Stats.Table.create
      ~columns:
        [ ("placement / load", Stats.Table.Left);
          ("mean (ms)", Stats.Table.Right); ("p50", Stats.Table.Right);
          ("p99", Stats.Table.Right); ("max util", Stats.Table.Right) ]
  in
  List.iter
    (fun (label, spread_identifiers, rate_per_s) ->
      let config =
        Config.default
        |> Config.with_spread_identifiers spread_identifiers
        |> Config.with_matching Config.Containment_match
      in
      let system = P2prange.System.create ~config ~seed ~n_peers () in
      let timed = P2prange.Timed.create ~system ~seed () in
      let rng = Prng.Splitmix.create seed in
      let stream =
        Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
          ~domain:config.Config.domain ~seed
      in
      let clock = ref 0.0 in
      for _ = 1 to n_queries do
        let u = 1.0 -. Prng.Splitmix.float rng in
        clock := !clock +. (-.log u *. 1000.0 /. rate_per_s);
        let from = P2prange.System.random_peer system rng in
        P2prange.Timed.submit timed ~at:!clock ~from
          (Workload.Query_workload.next stream)
      done;
      P2prange.Timed.run timed;
      let horizon = !clock in
      let latencies = List.map snd (P2prange.Timed.completed timed) in
      let s = Stats.Summary.of_list latencies in
      Stats.Table.add_row table
        [
          Printf.sprintf "%s @ %.0f q/s" label rate_per_s;
          Printf.sprintf "%.0f" (Stats.Summary.mean s);
          Printf.sprintf "%.0f" (Stats.Summary.median s);
          Printf.sprintf "%.0f" (Stats.Summary.p99 s);
          Printf.sprintf "%.2f" (P2prange.Timed.utilization timed ~horizon_ms:horizon);
        ])
    [
      ("raw", false, 20.0);
      ("raw", false, 100.0);
      ("mixed", true, 20.0);
      ("mixed", true, 100.0);
    ];
  Format.printf "%a" Stats.Table.pp table

(* ------------------------------------------------------------------ *)
(* Load balance: hot-bucket replication and failover (lib/balance)      *)
(* ------------------------------------------------------------------ *)

let balance_bench () =
  (* Two identically-seeded systems — replication off vs on — fed the same
     Zipf-skewed query stream. Phase 1 measures the per-peer load-imbalance
     ratio the skew causes; then the 10% most-loaded peers of the OFF run
     (i.e. the hot-bucket owners) fail in both systems, and phase 2
     measures how much recall survives. *)
  let module System = P2prange.System in
  let module Peer = P2prange.Peer in
  let n_peers = 64 and n_queries = 8_000 and fail_fraction = 0.1 in
  let shape =
    Workload.Query_workload.Zipf_hotspots { hotspots = 8; spread = 8; s = 1.0 }
  in
  (* Spread placement (Mix32): peers own near-equal identifier segments, so
     the imbalance measured here is the genuinely-hot-identifier kind that
     per-bucket replication can fix (raw placement's imbalance is segment
     clustering — that is Mix32 territory). *)
  (* l = 1: one identifier per range, so a failed owner is the only native
     holder of its buckets and failover is actually load-bearing (at the
     paper's l = 5 any of five owners can answer, masking failures). *)
  let base =
    Config.default
    |> Config.with_matching Config.Containment_match
    |> Config.with_spread_identifiers true
    |> Config.with_kl ~k:20 ~l:1
  in
  let configs =
    [
      ("replication off", base);
      ( "replication on",
        base
        |> Config.with_balancing
             (Config.Replicate
                { r = 2; hot = Balance.Tracker.Absolute 8; window = 2048 }) );
    ]
  in
  let systems =
    List.map
      (fun (label, config) -> (label, System.create ~config ~seed ~n_peers ()))
      configs
  in
  let run_queries sys ~stream_seed ~n =
    let rng = Prng.Splitmix.create stream_seed in
    let stream =
      Workload.Query_workload.create shape ~domain:base.Config.domain
        ~seed:stream_seed
    in
    let live =
      Array.of_list (List.filter (System.alive sys) (System.peers sys))
    in
    let recalls = ref [] in
    for _ = 1 to n do
      let from = live.(Prng.Splitmix.int rng (Array.length live)) in
      let result =
        System.query sys ~from (Workload.Query_workload.next stream)
      in
      recalls := result.Query_result.recall :: !recalls
    done;
    mean !recalls
  in
  let phase1 =
    List.map
      (fun (label, sys) ->
        let recall = run_queries sys ~stream_seed:seed ~n:n_queries in
        (label, sys, recall, System.load_imbalance sys))
      systems
  in
  (* Victims: the top-10% most-loaded peers of the OFF run, failed in both
     systems so each loses the same hot segments. *)
  let victims =
    let _, off, _, _ = List.hd phase1 in
    let n_fail =
      Stdlib.max 1 (int_of_float (float_of_int n_peers *. fail_fraction))
    in
    System.peers off
    |> List.map (fun p ->
           ( Balance.Tracker.peer_load (System.tracker off) (Peer.id p),
             Peer.name p ))
    |> List.sort (fun (la, na) (lb, nb) ->
           if la <> lb then Int.compare lb la else String.compare na nb)
    |> List.filteri (fun i _ -> i < n_fail)
    |> List.map snd
  in
  List.iter
    (fun (_, sys) ->
      List.iter
        (fun name -> System.fail_peer sys (System.peer_by_name sys name))
        victims)
    systems;
  let table =
    Stats.Table.create
      ~columns:
        [ ("mode", Stats.Table.Left); ("imbalance (max/mean)", Stats.Table.Right);
          ("replicated buckets", Stats.Table.Right);
          ("mean recall", Stats.Table.Right);
          ("mean recall, 10% failed", Stats.Table.Right) ]
  in
  let results =
    List.map
      (fun (label, sys, recall1, imbalance) ->
        let recall2 = run_queries sys ~stream_seed:1337L ~n:(n_queries / 4) in
        Stats.Table.add_row table
          [
            label;
            Printf.sprintf "%.2f" imbalance;
            string_of_int (System.replicated_buckets sys);
            Printf.sprintf "%.3f" recall1;
            Printf.sprintf "%.3f" recall2;
          ];
        (label, imbalance, recall2))
      phase1
  in
  (match results with
  | [ (_, imb_off, rec_off); (_, imb_on, rec_on) ] ->
    record_gauges
      [
        ("balance.bench.imbalance_off", imb_off);
        ("balance.bench.imbalance_on", imb_on);
        ("balance.bench.failed_recall_off", rec_off);
        ("balance.bench.failed_recall_on", rec_on);
      ];
    Format.printf "%a" Stats.Table.pp table;
    Format.printf
      "failed peers: %d   imbalance off/on: %.2f/%.2f   recall under failures off/on: %.3f/%.3f@."
      (List.length victims) imb_off imb_on rec_off rec_on
  | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Load balance: range migration vs replication (lib/balance)           *)
(* ------------------------------------------------------------------ *)

(* The policy lattice head to head: imbalance and msgs/query for
   No_balancing / Replicate / Migrate / Replicate_and_migrate under the
   same Zipf stream, plus a flash-crowd phase on fresh systems. Gated:
   migrating slices must genuinely flatten load (below the unbalanced run,
   and — alone or composed with replication — at or below the
   replication-only figure) while staying invisible in answers: fault-free
   recall may drift from the unbalanced run by at most this much. *)
let max_migration_recall_drift = 0.01

let migration_bench () =
  (* Four identically-seeded systems — one per point of the
     Config.balancing lattice — fed the same Zipf-skewed stream used by
     the replication bench, so the imbalance figures are directly
     comparable. Fault-free, migration must not change any answer, so the
     recall columns double as a transparency check (the recall-drift
     gate); what it buys is a lower imbalance ratio, paid for in
     redirect forwards visible in msgs/query. A second, flash-crowd phase
     (a single extreme hotspot) reruns off-vs-migrate on fresh systems. *)
  let module System = P2prange.System in
  let n_peers = 64 and n_queries = 8_000 in
  (* Raw placement (no Mix32 spread): peers own the uneven segments that
     SHA-1 positions produce, so part of the imbalance is segment
     clustering — the component migration can actually fix by handing
     half a segment away. Single ultra-hot identifiers are replication's
     half of the lattice; [both] composes the two. *)
  let base =
    Config.default
    |> Config.with_matching Config.Containment_match
    |> Config.with_kl ~k:20 ~l:1
  in
  let replicate_spec =
    { Config.r = 2; hot = Balance.Tracker.Absolute 8; window = 2048 }
  in
  let migrate_spec =
    { Config.check_every = 256;
      overload = 1.2;
      cooldown = 1;
      min_share = 16;
      window = 2048;
    }
  in
  let configs =
    [
      ("off", base);
      ("replicate", { base with Config.balancing = Config.Replicate replicate_spec });
      ("migrate", { base with Config.balancing = Config.Migrate migrate_spec });
      ( "both",
        { base with
          Config.balancing =
            Config.Replicate_and_migrate
              { replicate = replicate_spec; migrate = migrate_spec };
        } );
    ]
  in
  let run_queries sys ~shape ~stream_seed ~n =
    let rng = Prng.Splitmix.create stream_seed in
    let stream =
      Workload.Query_workload.create shape ~domain:base.Config.domain
        ~seed:stream_seed
    in
    let peers = Array.of_list (System.peers sys) in
    let recalls = ref [] and msgs = ref [] in
    for _ = 1 to n do
      let from = peers.(Prng.Splitmix.int rng (Array.length peers)) in
      let result =
        System.query sys ~from (Workload.Query_workload.next stream)
      in
      recalls := result.Query_result.recall :: !recalls;
      msgs :=
        float_of_int result.Query_result.stats.Query_result.messages :: !msgs
    done;
    (mean !recalls, mean !msgs)
  in
  let zipf =
    Workload.Query_workload.Zipf_hotspots { hotspots = 8; spread = 8; s = 1.0 }
  in
  let table =
    Stats.Table.create
      ~columns:
        [ ("policy", Stats.Table.Left); ("imbalance (max/mean)", Stats.Table.Right);
          ("msgs/query", Stats.Table.Right); ("mean recall", Stats.Table.Right);
          ("migrations", Stats.Table.Right);
          ("replicated buckets", Stats.Table.Right) ]
  in
  let results =
    List.map
      (fun (label, config) ->
        let sys = System.create ~config ~seed ~n_peers () in
        let recall, msgs =
          run_queries sys ~shape:zipf ~stream_seed:seed ~n:n_queries
        in
        let imbalance = System.load_imbalance sys in
        Stats.Table.add_row table
          [
            label;
            Printf.sprintf "%.2f" imbalance;
            Printf.sprintf "%.2f" msgs;
            Printf.sprintf "%.3f" recall;
            string_of_int (System.migrations sys);
            string_of_int (System.replicated_buckets sys);
          ];
        (label, imbalance, msgs, recall, System.migrations sys))
      configs
  in
  (match results with
  | [
   (_, imb_off, m_off, rec_off, _);
   (_, imb_rep, m_rep, _, _);
   (_, imb_mig, m_mig, rec_mig, migrations);
   (_, imb_both, m_both, _, _);
  ] ->
    record_gauges
      [
        ("migration.bench.imbalance_off", imb_off);
        ("migration.bench.imbalance_replicate", imb_rep);
        ("migration.bench.imbalance_migrate", imb_mig);
        ("migration.bench.imbalance_both", imb_both);
        ("migration.bench.msgs_per_query_off", m_off);
        ("migration.bench.msgs_per_query_replicate", m_rep);
        ("migration.bench.msgs_per_query_migrate", m_mig);
        ("migration.bench.msgs_per_query_both", m_both);
        ("migration.bench.recall_off", rec_off);
        ("migration.bench.recall_migrate", rec_mig);
        ("migration.bench.migrations", float_of_int migrations);
      ];
    gate (migrations >= 1) "migration: the planner never migrated a slice";
    gate (imb_mig < imb_off)
      "migration: imbalance %.2f not improved over unbalanced %.2f" imb_mig
      imb_off;
    gate
      (Float.min imb_mig imb_both <= imb_rep)
      "migration: neither migrate (%.2f) nor replicate-and-migrate (%.2f) \
       reaches the replication-only imbalance %.2f"
      imb_mig imb_both imb_rep;
    gate
      (Float.abs (rec_mig -. rec_off) <= max_migration_recall_drift)
      "migration: migration moved recall %.3f -> %.3f (tolerance %.2f)" rec_off
      rec_mig max_migration_recall_drift
  | _ -> assert false);
  Format.printf "%a" Stats.Table.pp table;
  (* Flash crowd: one extreme hotspot, fresh systems so the cumulative
     imbalance ratio reflects this phase alone. *)
  let flash =
    Workload.Query_workload.Zipf_hotspots { hotspots = 1; spread = 4; s = 2.0 }
  in
  let flash_of config =
    let sys = System.create ~config ~seed ~n_peers () in
    let _ = run_queries sys ~shape:flash ~stream_seed:7L ~n:(n_queries / 2) in
    System.load_imbalance sys
  in
  let f_off = flash_of base in
  let f_mig =
    flash_of { base with Config.balancing = Config.Migrate migrate_spec }
  in
  record_gauges
    [
      ("migration.bench.flash_imbalance_off", f_off);
      ("migration.bench.flash_imbalance_migrate", f_mig);
    ];
  Format.printf
    "flash crowd imbalance off/migrate: %.2f/%.2f   zipf imbalance off/replicate/migrate/both: %.2f/%.2f/%.2f/%.2f@."
    f_off f_mig
    (match results with (_, i, _, _, _) :: _ -> i | [] -> 0.0)
    (match results with _ :: (_, i, _, _, _) :: _ -> i | _ -> 0.0)
    (match results with _ :: _ :: (_, i, _, _, _) :: _ -> i | _ -> 0.0)
    (match results with [ _; _; _; (_, i, _, _, _) ] -> i | _ -> 0.0)

(* ------------------------------------------------------------------ *)
(* Fault injection: drop rate × crash fraction, retry on vs off        *)
(* ------------------------------------------------------------------ *)

(* Robustness floor, gated at the acceptance cell (drop 0.1, 10% crashed):
   the retry policy must recover at least this much recall over
   retry-disabled routing. *)
let min_recall_gap = 0.15

let faults_bench () =
  (* Sweep per-message drop rate × crashed-peer fraction over pairs of
     identically-seeded systems that differ only in the retry policy:
     [Retry.none] (faults without recovery) vs [Retry.default]. Each cell
     streams the same uniform query workload through both; queries
     populate the caches (cache-on-inexact), so a lost owner contact costs
     both the answer and the cache write. l = 1 keeps a single owner per
     range, making every lost contact visible in recall rather than
     masked by the other four owners of the paper's l = 5. *)
  let module System = P2prange.System in
  let module Peer = P2prange.Peer in
  let n_peers = 64 and n_warm = 1_000 and n_measure = 2_000 in
  let base =
    Config.default
    |> Config.with_matching Config.Containment_match
    |> Config.with_spread_identifiers true
    |> Config.with_kl ~k:Config.default.Config.k ~l:1
  in
  let sends_counter = Obs.Metrics.counter "faults.sends" in
  let cell ~drop ~crash_fraction ~retry =
    let config =
      base
      |> Config.with_faults
           { Config.spec = { Faults.Plane.no_faults with drop }; retry }
    in
    let sys = System.create ~config ~seed ~n_peers () in
    let plane = Option.get (System.fault_plane sys) in
    (* Crash the first [crash_fraction] of peers (by creation order) for
       the whole run: their segments stay owned but unanswerable. *)
    let n_crashed =
      int_of_float (float_of_int n_peers *. crash_fraction)
    in
    List.iteri
      (fun i p -> if i < n_crashed then Faults.Plane.crash plane (Peer.id p))
      (System.peers sys);
    let rng = Prng.Splitmix.create seed in
    let stream =
      Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
        ~domain:base.Config.domain ~seed
    in
    let live =
      Array.of_list (List.filter (System.responsive sys) (System.peers sys))
    in
    let sends0 = Obs.Metrics.counter_value sends_counter in
    let recalls = ref [] and degraded = ref 0 in
    for i = 1 to n_warm + n_measure do
      let from = live.(Prng.Splitmix.int rng (Array.length live)) in
      let result =
        System.query sys ~from (Workload.Query_workload.next stream)
      in
      if i > n_warm then begin
        recalls := result.Query_result.recall :: !recalls;
        if result.Query_result.degraded then incr degraded
      end
    done;
    let sends = Obs.Metrics.counter_value sends_counter - sends0 in
    ( mean !recalls,
      float_of_int !degraded /. float_of_int n_measure,
      float_of_int sends /. float_of_int (n_warm + n_measure) )
  in
  let table =
    Stats.Table.create
      ~columns:
        [ ("drop", Stats.Table.Right); ("crashed", Stats.Table.Right);
          ("recall retry-off", Stats.Table.Right);
          ("recall retry-on", Stats.Table.Right);
          ("degraded off", Stats.Table.Right);
          ("degraded on", Stats.Table.Right);
          ("sends/query on", Stats.Table.Right) ]
  in
  let headline = ref (0.0, 0.0) in
  List.iter
    (fun (drop, crash_fraction) ->
      let rec_off, deg_off, sends_off =
        cell ~drop ~crash_fraction ~retry:Faults.Retry.none
      in
      let rec_on, deg_on, sends_on =
        cell ~drop ~crash_fraction ~retry:Faults.Retry.default
      in
      Stats.Table.add_row table
        [
          Printf.sprintf "%.2f" drop;
          Printf.sprintf "%.0f%%" (crash_fraction *. 100.0);
          Printf.sprintf "%.3f" rec_off;
          Printf.sprintf "%.3f" rec_on;
          Printf.sprintf "%.3f" deg_off;
          Printf.sprintf "%.3f" deg_on;
          Printf.sprintf "%.1f" sends_on;
        ];
      (* The acceptance cell: drop 0.1, 10% of peers crashed. *)
      if drop = 0.1 && crash_fraction = 0.1 then begin
        headline := (rec_off, rec_on);
        record_gauges
          [
            ("faults.bench.recall_retry_off", rec_off);
            ("faults.bench.recall_retry_on", rec_on);
            ("faults.bench.recall_gap", rec_on -. rec_off);
            ("faults.bench.degraded_retry_off", deg_off);
            ("faults.bench.degraded_retry_on", deg_on);
            ("faults.bench.sends_per_query_off", sends_off);
            ("faults.bench.sends_per_query_on", sends_on);
          ]
      end)
    [ (0.05, 0.0); (0.05, 0.1); (0.1, 0.0); (0.1, 0.1); (0.2, 0.0); (0.2, 0.1) ];
  Format.printf "%a" Stats.Table.pp table;
  let rec_off, rec_on = !headline in
  Format.printf
    "retry recovery at drop 0.10 / 10%% crashed: +%.3f recall (%.3f -> %.3f)@."
    (rec_on -. rec_off) rec_off rec_on;
  gate
    (rec_on -. rec_off >= min_recall_gap)
    "faults: retry-enabled routing recovers only %.3f recall over \
     retry-disabled (%.3f -> %.3f); floor is %.2f"
    (rec_on -. rec_off) rec_off rec_on min_recall_gap

(* ------------------------------------------------------------------ *)
(* Batched query pipeline: messages per query vs batch size            *)
(* ------------------------------------------------------------------ *)

(* Gated at the Zipf / batch-64 cell: batching must cut messages per query
   by at least a quarter and must not move recall by more than a hair; a
   batch of one must replay the single-query path bit-for-bit. *)
let min_batch_reduction = 0.25
let max_batch_recall_drift = 0.01

let batch_bench () =
  (* One client peer issues the same 512-query stream against
     identically-seeded systems, once query-by-query and once in batches
     of 8 and 64. Fault-free batching never changes answers (the results
     of the batch-of-one run are compared bit-for-bit against the
     unbatched run), so the interesting numbers are messages per query —
     signature memo + identifier dedupe + route cache + contact
     coalescing — and wall-clock throughput. *)
  let module System = P2prange.System in
  let n_peers = 64 and n_queries = 512 in
  let workloads =
    [
      ("uniform", Workload.Query_workload.Uniform_width { max_width = 64 });
      ( "zipf",
        Workload.Query_workload.Zipf_hotspots
          { hotspots = 8; spread = 8; s = 1.0 } );
    ]
  in
  let queries_of shape =
    let stream =
      Workload.Query_workload.create shape ~domain:Config.default.Config.domain
        ~seed
    in
    List.init n_queries (fun _ -> Workload.Query_workload.next stream)
  in
  let chunks n xs =
    let rec take k = function
      | rest when k = 0 -> ([], rest)
      | [] -> ([], [])
      | x :: rest ->
        let chunk, rest = take (k - 1) rest in
        (x :: chunk, rest)
    in
    let rec split = function
      | [] -> []
      | xs ->
        let chunk, rest = take n xs in
        chunk :: split rest
    in
    split xs
  in
  (* [batch = 0] is the unbatched baseline: System.query per range. *)
  let run shape ~batch =
    let sys = System.create ~seed ~n_peers () in
    let from = System.peer_by_name sys "peer-0" in
    let queries = queries_of shape in
    let t0 = Unix.gettimeofday () in
    let results =
      if batch = 0 then List.map (fun q -> System.query sys ~from q) queries
      else
        List.concat_map
          (fun chunk -> System.query_batch sys ~from chunk)
          (chunks batch queries)
    in
    let elapsed = Stdlib.max 1e-9 (Unix.gettimeofday () -. t0) in
    let msgs =
      List.fold_left (fun acc r -> acc + Query_result.messages r) 0 results
    in
    ( results,
      float_of_int msgs /. float_of_int n_queries,
      mean (List.map (fun r -> r.Query_result.recall) results),
      float_of_int n_queries /. elapsed )
  in
  let table =
    Stats.Table.create
      ~columns:
        [ ("workload", Stats.Table.Left); ("batch", Stats.Table.Right);
          ("msgs/query", Stats.Table.Right); ("reduction", Stats.Table.Right);
          ("mean recall", Stats.Table.Right);
          ("throughput q/s", Stats.Table.Right) ]
  in
  let identical = ref true in
  List.iter
    (fun (label, shape) ->
      let base_results, base_msgs, base_recall, base_qps =
        run shape ~batch:0
      in
      Stats.Table.add_row table
        [
          label; "-"; Printf.sprintf "%.2f" base_msgs; "-";
          Printf.sprintf "%.3f" base_recall; Printf.sprintf "%.0f" base_qps;
        ];
      List.iter
        (fun batch ->
          let results, msgs, recall, qps = run shape ~batch in
          if batch = 1 then identical := !identical && results = base_results;
          let reduction = 1.0 -. (msgs /. base_msgs) in
          Stats.Table.add_row table
            [
              label; string_of_int batch; Printf.sprintf "%.2f" msgs;
              Printf.sprintf "%.1f%%" (100.0 *. reduction);
              Printf.sprintf "%.3f" recall; Printf.sprintf "%.0f" qps;
            ];
          if label = "zipf" && batch = 64 then begin
            record_gauges
              [
                ("batch.bench.msgs_per_query_unbatched", base_msgs);
                ("batch.bench.msgs_per_query_batch64_zipf", msgs);
                ("batch.bench.reduction", reduction);
                ("batch.bench.recall_unbatched", base_recall);
                ("batch.bench.recall_batch64", recall);
              ];
            Obs.Metrics.set_gauge
              (Obs.Metrics.wall_gauge "batch.bench.qps_batch64_zipf")
              qps;
            gate
              (reduction >= min_batch_reduction)
              "batch: batching saves only %.1f%% of messages per query at \
               batch 64 under Zipf; floor is %.0f%%"
              (100.0 *. reduction)
              (100.0 *. min_batch_reduction);
            gate
              (Float.abs (recall -. base_recall) <= max_batch_recall_drift)
              "batch: batching moved recall %.3f -> %.3f (tolerance %.2f)"
              base_recall recall max_batch_recall_drift
          end)
        [ 1; 8; 64 ])
    workloads;
  record_gauges
    [ ("batch.bench.bit_identical", if !identical then 1.0 else 0.0) ];
  Format.printf "%a" Stats.Table.pp table;
  Format.printf "batch-of-one bit-identical to single queries: %b@." !identical;
  gate !identical "batch: a batch of one is not bit-identical to single queries"

(* ------------------------------------------------------------------ *)
(* Engine: SQL-over-P2P provenance (§2/§6)                              *)
(* ------------------------------------------------------------------ *)

let engine_sql () =
  (* The paper's end-to-end flow on the medical-records schema: a stream of
     range selections where each query is re-asked by another peer, so the
     second execution is answered from cached partitions. Reports the
     cache-vs-source provenance split the metrics layer records. *)
  let module V = Relational.Value in
  let module S = Relational.Schema in
  let module R = Relational.Relation in
  let module E = P2prange.Engine in
  let patient_schema =
    S.make [ ("patient_id", V.Tint); ("name", V.Tstring); ("age", V.Tint) ]
  in
  let patients =
    R.create ~name:"Patient" ~schema:patient_schema
      (List.init 500 (fun i ->
           [| V.Int i; V.String (Printf.sprintf "p%d" i); V.Int (i mod 95) |]))
  in
  let engine =
    E.create ~seed ~n_peers:50 ~sources:[ patients ]
      ~rangeable:[ (("Patient", "age"), Range.make ~lo:0 ~hi:120) ]
      ()
  in
  let rng = Prng.Splitmix.create seed in
  let n_queries = 200 in
  let provenance = Hashtbl.create 4 in
  let bump key = Hashtbl.replace provenance key (1 + Option.value (Hashtbl.find_opt provenance key) ~default:0) in
  let total_messages = ref 0 and total_fetches = ref 0 in
  for _ = 1 to n_queries do
    let lo = Prng.Splitmix.int rng 80 in
    let width = 5 + Prng.Splitmix.int rng 15 in
    let sql =
      Printf.sprintf "select name from Patient where %d <= age <= %d" lo
        (lo + width)
    in
    (* Same query from two peers: publisher then cache consumer. *)
    List.iter
      (fun peer ->
        let a = E.execute_sql engine ~from_name:peer sql in
        total_messages := !total_messages + a.E.messages;
        total_fetches := !total_fetches + a.E.source_fetches;
        List.iter
          (fun leaf ->
            bump
              (match leaf.E.provenance with
              | E.From_cache _ -> "cache"
              | E.From_source _ -> "source"
              | E.From_exact_dht _ -> "exact-dht"
              | E.Full_relation -> "full-relation"))
          a.E.leaves)
      [ "peer-0"; "peer-1" ]
  done;
  let table =
    Stats.Table.create
      ~columns:
        [ ("provenance", Stats.Table.Left); ("leaves", Stats.Table.Right) ]
  in
  List.iter
    (fun key ->
      Stats.Table.add_row table
        [ key; string_of_int (Option.value (Hashtbl.find_opt provenance key) ~default:0) ])
    [ "cache"; "source"; "exact-dht"; "full-relation" ];
  Format.printf "%a" Stats.Table.pp table;
  Format.printf
    "executions: %d   total messages: %d   source fetches: %d@."
    (2 * n_queries) !total_messages !total_fetches

(* ------------------------------------------------------------------ *)
(* Baseline: the flooding overlay §1 argues against                     *)
(* ------------------------------------------------------------------ *)

let baseline_unstructured () =
  (* Gnutella-style flooding with local caches vs the paper's LSH/DHT, on
     the same query stream: match rate and overlay messages per query. *)
  let n_peers = 100 and n_queries = 5000 in
  let domain = Config.default.Config.domain in
  let table =
    Stats.Table.create
      ~columns:
        [ ("architecture", Stats.Table.Left);
          ("matched (%)", Stats.Table.Right);
          ("complete (%)", Stats.Table.Right);
          ("mean msgs/query", Stats.Table.Right) ]
  in
  (* DHT rows. Jaccard matching mirrors the floods' scoring (fair quality
     comparison); the containment row shows the paper's §5.2 configuration. *)
  List.iter
    (fun (label, matching) ->
      let config = Config.default |> Config.with_matching matching in
      let run = Simulation.run ~config ~n_peers ~n_queries ~seed () in
      Stats.Table.add_row table
        [
          label;
          Printf.sprintf "%.1f"
            (100.0 *. (1.0 -. Simulation.fraction_unmatched run));
          Printf.sprintf "%.1f" (100.0 *. Simulation.fraction_complete run);
          Printf.sprintf "%.1f" (Simulation.mean_messages run);
        ])
    [
      ("LSH + Chord, jaccard", Config.Jaccard_match);
      ("LSH + Chord, containment", Config.Containment_match);
    ];
  (* Flooding rows: the requester caches every queried range locally. *)
  List.iter
    (fun ttl ->
      let overlay = Flood.Overlay.create ~n:n_peers ~degree:6 ~seed in
      let rng = Prng.Splitmix.create seed in
      let stream =
        Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
          ~domain ~seed
      in
      let warmup = n_queries / 5 in
      let matched = ref 0 and complete = ref 0 and messages = ref 0 in
      let measured = ref 0 in
      for i = 1 to n_queries do
        let from = Prng.Splitmix.int rng n_peers in
        let range = Workload.Query_workload.next stream in
        let reply = Flood.Overlay.flood_query overlay ~from ~ttl range in
        if i > warmup then begin
          incr measured;
          messages := !messages + reply.Flood.Overlay.messages;
          match reply.Flood.Overlay.best with
          | Some (found, _) ->
            incr matched;
            if Rangeset.Range.containment ~query:range ~answer:found >= 1.0 then
              incr complete
          | None -> ()
        end;
        Flood.Overlay.store overlay ~peer:from range
      done;
      let pct x = 100.0 *. float_of_int x /. float_of_int !measured in
      Stats.Table.add_row table
        [
          Printf.sprintf "flooding ttl=%d" ttl;
          Printf.sprintf "%.1f" (pct !matched);
          Printf.sprintf "%.1f" (pct !complete);
          Printf.sprintf "%.1f"
            (float_of_int !messages /. float_of_int !measured);
        ])
    [ 1; 2; 3 ];
  (* Superpeer rows: each superpeer indexes its 10-leaf cluster. *)
  List.iter
    (fun ttl ->
      let overlay =
        Flood.Superpeer.create ~n_peers ~n_superpeers:10 ~degree:4 ~seed
      in
      let rng = Prng.Splitmix.create seed in
      let stream =
        Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
          ~domain ~seed
      in
      let warmup = n_queries / 5 in
      let matched = ref 0 and complete = ref 0 and messages = ref 0 in
      let measured = ref 0 in
      for i = 1 to n_queries do
        let from = Prng.Splitmix.int rng n_peers in
        let range = Workload.Query_workload.next stream in
        let reply = Flood.Superpeer.query overlay ~from ~ttl range in
        if i > warmup then begin
          incr measured;
          messages := !messages + reply.Flood.Superpeer.messages;
          match reply.Flood.Superpeer.best with
          | Some (found, _) ->
            incr matched;
            if Rangeset.Range.containment ~query:range ~answer:found >= 1.0 then
              incr complete
          | None -> ()
        end;
        Flood.Superpeer.store overlay ~peer:from range
      done;
      let pct x = 100.0 *. float_of_int x /. float_of_int !measured in
      Stats.Table.add_row table
        [
          Printf.sprintf "superpeers (10) ttl=%d" ttl;
          Printf.sprintf "%.1f" (pct !matched);
          Printf.sprintf "%.1f" (pct !complete);
          Printf.sprintf "%.1f"
            (float_of_int !messages /. float_of_int !measured);
        ])
    [ 1; 2 ];
  Format.printf "%a" Stats.Table.pp table

(* ------------------------------------------------------------------ *)
(* Routing substrates: Chord fingers vs the learned index              *)
(* ------------------------------------------------------------------ *)

(* Gated: the learned index must strictly beat Chord's mean hop count in
   both the steady and the churn phase (staleness fallbacks included),
   must return the very same answers (recall drift at most this much, and
   the stripped result streams literally equal), and must actually have
   exercised the staleness machinery during the churn phase. *)
let max_substrate_recall_drift = 0.01

let substrate_bench () =
  (* Two identically-seeded 1000-peer systems — the paper's Figure 12
     network size — differing only in [Config.substrate], fed the same
     query stream. Substrate construction draws no randomness and owners
     agree by construction, so every answer must be identical between
     the runs (the identical-answers gate); the learned index buys its
     mean-hops win purely in routing. The second phase cycles 10% of the
     peers through fail/recover while querying: each event staled learned
     segments until the model's retrain epoch, and stale predictions fall
     back to Chord correction, so this phase prices staleness in hops. *)
  let module System = P2prange.System in
  let module Routing = P2prange.Routing in
  let n_peers = 1_000 and n_steady = 1_500 and n_churn = 1_000 in
  let base = Config.default in
  let learned_config =
    base |> Config.with_substrate (Config.Learned Config.default_learned)
  in
  (* One run = steady phase, then the churn phase. Returns per-lookup
     hop means for both phases, msgs/query, recalls, and the stripped
     answers for the cross-substrate identity check. *)
  let run config =
    let sys = System.create ~config ~seed ~n_peers () in
    let rng = Prng.Splitmix.create seed in
    let stream =
      Workload.Query_workload.create Workload.Query_workload.Uniform_pairs
        ~domain:base.Config.domain ~seed
    in
    let peers = Array.of_list (System.peers sys) in
    let strip (r : Query_result.t) =
      ( r.Query_result.query,
        Option.map
          (fun (m : P2prange.Matching.scored) -> m.P2prange.Matching.entry)
          r.Query_result.matched,
        r.Query_result.recall,
        r.Query_result.responders )
    in
    let one () =
      let from = peers.(Prng.Splitmix.int rng (Array.length peers)) in
      System.query sys ~from (Workload.Query_workload.next stream)
    in
    let hops_of r = List.map float_of_int r.Query_result.stats.Query_result.hops in
    let steady = ref [] in
    for _ = 1 to n_steady do
      steady := one () :: !steady
    done;
    let steady = List.rev !steady in
    (* Churn: every 10th query fails the next peer of the first 100 and
       recovers the one failed 50 queries ago — a rolling 5-peer dead
       set, 200 membership events in total. *)
    let churn = ref [] in
    for i = 0 to n_churn - 1 do
      if i mod 10 = 0 then begin
        let k = i / 10 in
        System.fail_peer sys
          (System.peer_by_name sys (Printf.sprintf "peer-%d" (k mod 100)));
        if k >= 5 then
          System.recover_peer sys
            (System.peer_by_name sys (Printf.sprintf "peer-%d" ((k - 5) mod 100)))
      end;
      churn := one () :: !churn
    done;
    let churn = List.rev !churn in
    let msgs r = float_of_int r.Query_result.stats.Query_result.messages in
    ( mean (List.concat_map hops_of steady),
      mean (List.concat_map hops_of churn),
      mean (List.map msgs (steady @ churn)),
      mean (List.map (fun r -> r.Query_result.recall) (steady @ churn)),
      List.map strip (steady @ churn),
      sys )
  in
  let c_hops, c_churn_hops, c_msgs, c_recall, c_answers, _ = run base in
  let l_hops, l_churn_hops, l_msgs, l_recall, l_answers, l_sys =
    run learned_config
  in
  let model = Option.get (Routing.learned_model (System.routing l_sys)) in
  (* The section's Metrics plane is fresh and only the learned system
     records [learned.*], so these are its tallies. *)
  let lookups = Obs.Metrics.(counter_value (counter "learned.lookups")) in
  let mean_correction =
    if lookups = 0 then 0.0
    else Obs.Metrics.(hist_mean (histogram "learned.correction_hops"))
  in
  let identical = c_answers = l_answers in
  let stale = Obs.Metrics.(counter_value (counter "learned.stale_lookups"))
  and retrains = Learned.Model.retrains model
  and segments = Learned.Model.segment_count model in
  record_gauges
    [
      ("substrate.bench.hops_chord", c_hops);
      ("substrate.bench.hops_learned", l_hops);
      ("substrate.bench.msgs_per_query_chord", c_msgs);
      ("substrate.bench.msgs_per_query_learned", l_msgs);
      ("substrate.bench.recall_chord", c_recall);
      ("substrate.bench.recall_learned", l_recall);
      ("substrate.bench.identical_answers", if identical then 1.0 else 0.0);
      ("substrate.bench.churn_hops_chord", c_churn_hops);
      ("substrate.bench.churn_hops_learned", l_churn_hops);
      ("substrate.bench.stale_lookups", float_of_int stale);
      ("substrate.bench.mean_correction_hops", mean_correction);
      ("substrate.bench.retrains", float_of_int retrains);
      ("substrate.bench.segments", float_of_int segments);
    ];
  let table =
    Stats.Table.create
      ~columns:
        [ ("substrate", Stats.Table.Left);
          ("hops/lookup", Stats.Table.Right);
          ("churn hops/lookup", Stats.Table.Right);
          ("msgs/query", Stats.Table.Right);
          ("mean recall", Stats.Table.Right) ]
  in
  Stats.Table.add_row table
    [
      "chord";
      Printf.sprintf "%.2f" c_hops;
      Printf.sprintf "%.2f" c_churn_hops;
      Printf.sprintf "%.2f" c_msgs;
      Printf.sprintf "%.3f" c_recall;
    ];
  Stats.Table.add_row table
    [
      "learned";
      Printf.sprintf "%.2f" l_hops;
      Printf.sprintf "%.2f" l_churn_hops;
      Printf.sprintf "%.2f" l_msgs;
      Printf.sprintf "%.3f" l_recall;
    ];
  Format.printf "%a" Stats.Table.pp table;
  Format.printf
    "identical answers: %s   learned: %d segments, %d retrains, %d stale \
     lookups, %.2f mean correction hops@."
    (if identical then "yes" else "NO")
    segments retrains stale mean_correction;
  gate (l_hops < c_hops) "substrate: learned mean hops %.2f not below chord %.2f"
    l_hops c_hops;
  gate (l_churn_hops < c_churn_hops)
    "substrate: under churn, learned mean hops %.2f not below chord %.2f"
    l_churn_hops c_churn_hops;
  gate
    (Float.abs (l_recall -. c_recall) <= max_substrate_recall_drift)
    "substrate: substrate moved recall %.3f -> %.3f (tolerance %.2f)" c_recall
    l_recall max_substrate_recall_drift;
  gate identical "substrate: the two substrates returned different answers";
  gate (stale >= 1) "substrate: churn phase never took the stale-fallback path";
  gate (retrains >= 1) "substrate: churn phase never retrained the model"

(* ------------------------------------------------------------------ *)
(* Chaos: partition -> heal -> crash -> recover soak, repair in between *)
(* ------------------------------------------------------------------ *)

(* Gated: cutting an 8/64-peer island must dent recall against the
   fault-free twin on the same stream by at least [min_chaos_partition_dip];
   hinted handoff and anti-entropy must actually fire (partitioned sends,
   parked hints, degraded hint serves, replays and repair passes all
   nonzero); the invariant checker must stay silent at every phase
   boundary; and after the last repair the chaos system must land within
   [max_chaos_final_gap] of its twin's recall. *)
let min_chaos_partition_dip = 0.05
let max_chaos_final_gap = 0.01

let chaos_bench () =
  (* Two identically-seeded 64-peer systems fed the same interleaved
     publish/query stream (1 publish per 3 queries, one shared 256-range
     pool so queries hit published data). The chaos system runs with a
     fault plane (no ambient faults — only the injected ones), hinted
     handoff, and retry; the twin runs fault-free. Phases: seed stores,
     warm, partition an 8-peer island, heal + repair, crash 6 peers,
     recover + repair, final soak. Recall is compared phase-by-phase;
     [System.check_invariants] runs on both systems at every boundary
     where the chaos system is nominally whole again. The plane's seed
     is drawn after the replication tie-break split, so the twins share
     scheme and tie-break streams exactly; cache-on-inexact stays off in
     both because its writes depend on fault outcomes and would let the
     stores drift apart. *)
  let module System = P2prange.System in
  let module Peer = P2prange.Peer in
  let n_peers = 64 in
  let base =
    Config.default
    |> Config.with_matching Config.Containment_match
    |> Config.with_spread_identifiers true
    |> Config.with_kl ~k:Config.default.Config.k ~l:1
    |> Config.with_cache_on_inexact false
    |> Config.with_balancing
         (Config.Replicate
            { r = 2; hot = Balance.Tracker.Absolute 8; window = 512 })
  in
  let chaos_config =
    base
    |> Config.with_faults
         { Config.spec = Faults.Plane.no_faults; retry = Faults.Retry.default }
    |> Config.with_hinted_handoff true
  in
  let chaos = System.create ~config:chaos_config ~seed ~n_peers () in
  let twin = System.create ~config:base ~seed ~n_peers () in
  let plane = Option.get (System.fault_plane chaos) in
  let peers = Array.of_list (System.peers chaos) in
  let twin_peers = Array.of_list (System.peers twin) in
  (* Fault targets by creation order: the partitioned island is peers
     0-7, crash victims are peers 20-25. Queries and publishes always
     originate from the untouched back half (32-63) so the same origin
     index is responsive in both systems throughout. *)
  let island = List.map Peer.id (Array.to_list (Array.sub peers 0 8)) in
  let victims = List.map Peer.id (Array.to_list (Array.sub peers 20 6)) in
  let publishes =
    Workload.Query_workload.create
      (Workload.Query_workload.Repeating { unique = 256 })
      ~domain:base.Config.domain ~seed
  in
  let queries =
    Workload.Query_workload.create
      (Workload.Query_workload.Repeating { unique = 256 })
      ~domain:base.Config.domain ~seed
  in
  let rng = Prng.Splitmix.create seed in
  let origin () = 32 + Prng.Splitmix.int rng 32 in
  let publish_both () =
    let range = Workload.Query_workload.next publishes in
    let o = origin () in
    ignore
      (System.publish chaos ~from:peers.(o) range : Query_result.lookup_stats);
    ignore
      (System.publish twin ~from:twin_peers.(o) range
        : Query_result.lookup_stats)
  in
  (* Per-query recall of each twin on the metric timeline, labelled by
     system. The chaos curve dips at the partition mark and reconverges
     with the twin after repair — timeline.exe's change-point gates read
     exactly this pair of series. *)
  let h_chaos_recall =
    Obs.Metrics.histogram ~label:"sys"
      ~bounds:(Array.init 21 (fun i -> float_of_int i /. 20.0))
      "chaos.recall"
  in
  let soak n =
    let rc = ref [] and rt = ref [] in
    for i = 1 to n do
      if i mod 4 = 0 then publish_both ()
      else begin
        let range = Workload.Query_workload.next queries in
        let o = origin () in
        let a = System.query chaos ~from:peers.(o) range in
        let b = System.query twin ~from:twin_peers.(o) range in
        Obs.Metrics.observe1 h_chaos_recall "chaos" a.Query_result.recall;
        Obs.Metrics.observe1 h_chaos_recall "twin" b.Query_result.recall;
        rc := a.Query_result.recall :: !rc;
        rt := b.Query_result.recall :: !rt
      end
    done;
    (mean !rc, mean !rt)
  in
  let violations = ref 0 in
  let boundary label =
    let v = System.check_invariants chaos @ System.check_invariants twin in
    violations := !violations + List.length v;
    List.iter
      (fun line -> Format.printf "invariant violation (%s): %s@." label line)
      v
  in
  for _ = 1 to 400 do
    publish_both ()
  done;
  boundary "seeded";
  let warm = soak 200 in
  Faults.Plane.partition plane [ island ];
  let partition = soak 400 in
  Faults.Plane.heal plane;
  System.repair chaos;
  boundary "healed+repaired";
  ignore (soak 200 : float * float);
  List.iter (fun id -> Faults.Plane.crash plane id) victims;
  let crash = soak 400 in
  List.iter (fun id -> Faults.Plane.recover plane id) victims;
  System.repair chaos;
  boundary "recovered+repaired";
  let final = soak 400 in
  boundary "final";
  let cv name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let dip = snd partition -. fst partition in
  let gap = Float.abs (fst final -. snd final) in
  let fired =
    [
      ("chaos.bench.partitioned_sends", cv "faults.partitioned");
      ("chaos.bench.hints_parked", cv "system.hints_parked");
      ("chaos.bench.hint_serves", cv "system.hint_serves");
      ("chaos.bench.hints_replayed", cv "system.hints_replayed");
      ("chaos.bench.repairs", cv "system.repairs");
    ]
  in
  record_gauges
    (("chaos.bench.recall_partition", fst partition)
    :: ("chaos.bench.recall_twin_partition", snd partition)
    :: ("chaos.bench.recall_final", fst final)
    :: ("chaos.bench.recall_twin_final", snd final)
    :: ("chaos.bench.recall_gap_final", gap)
    :: ("chaos.bench.invariant_violations", float_of_int !violations)
    :: List.map (fun (name, n) -> (name, float_of_int n)) fired);
  let table =
    Stats.Table.create
      ~columns:
        [ ("phase", Stats.Table.Left);
          ("chaos recall", Stats.Table.Right);
          ("twin recall", Stats.Table.Right);
          ("gap", Stats.Table.Right) ]
  in
  List.iter
    (fun (label, (c, t)) ->
      Stats.Table.add_row table
        [
          label;
          Printf.sprintf "%.3f" c;
          Printf.sprintf "%.3f" t;
          Printf.sprintf "%+.3f" (c -. t);
        ])
    [
      ("warm", warm); ("partition (8/64 cut)", partition);
      ("crash (6 peers down)", crash); ("recovered + repaired", final);
    ];
  Format.printf "%a" Stats.Table.pp table;
  Format.printf
    "parked %d hints, still parked %d; %d invariant violations; final gap \
     %.4f@."
    (cv "system.hints_parked") (System.parked_hints chaos) !violations gap;
  gate (dip >= min_chaos_partition_dip)
    "chaos: partitioning the island dented recall by only %.3f against the \
     fault-free twin; floor is %.2f"
    dip min_chaos_partition_dip;
  gate (gap <= max_chaos_final_gap)
    "chaos: post-repair recall still %.4f away from the fault-free twin \
     (tolerance %.2f)"
    gap max_chaos_final_gap;
  gate (!violations = 0)
    "chaos: check_invariants reported violations at a phase boundary";
  List.iter (fun (name, n) -> gate (n >= 1) "chaos: %s never moved" name) fired

let sections =
  [
    ("fig5", "hash family execution time vs range size (Figure 5)", fig5);
    ( "fig5-bechamel",
      "Bechamel OLS estimates for hashing a 1000-wide range",
      fig5_bechamel );
    ("fig6a", "match-similarity histogram, exact min-wise (Figure 6a)", fig6a);
    ("fig6b", "match-similarity histogram, approx min-wise (Figure 6b)", fig6b);
    ( "fig7",
      "match-similarity histogram, linear permutations (Figure 7)",
      fig7 );
    ("fig8", "recall by hash family (Figure 8)", fig8);
    ("fig9", "recall: containment vs jaccard matching (Figure 9)", fig9);
    ("fig10", "recall with 20% query padding (Figure 10)", fig10);
    ("fig11a", "load distribution vs number of nodes (Figure 11a)", fig11a);
    ("fig11b", "load distribution vs stored partitions (Figure 11b)", fig11b);
    ("fig12a", "lookup path length vs number of nodes (Figure 12a)", fig12a);
    ("fig12b", "path-length PDF in a 1000-node network (Figure 12b)", fig12b);
    ( "ablation-combine",
      "group combining: XOR vs sum (DESIGN.md #1)",
      ablation_combine );
    ( "ablation-kl",
      "amplification parameters (k, l) (DESIGN.md #2)",
      ablation_kl );
    ( "ablation-padding",
      "padding policies incl. adaptive (DESIGN.md #4)",
      ablation_padding );
    ( "ablation-peer-index",
      "per-peer index of §5.3 (DESIGN.md #5)",
      ablation_peer_index );
    ( "ablation-eviction",
      "bounded per-peer caches (LRU/FIFO)",
      ablation_eviction );
    ( "ablation-spread",
      "bijective identifier spreading (Mix32)",
      ablation_spread );
    ( "ablation-latency",
      "query latency under load (event simulation)",
      ablation_latency );
    ( "ablation-family",
      "paper families vs ideal min-wise baseline",
      ablation_family );
    ( "balance",
      "hot-bucket replication and failover (lib/balance)",
      balance_bench );
    ( "migration",
      "range migration vs replication (lib/balance)",
      migration_bench );
    ( "faults",
      "fault injection: drop x crash sweep, retry on vs off",
      faults_bench );
    ( "batch",
      "batched query pipeline: messages/query vs batch size",
      batch_bench );
    ( "substrate",
      "routing substrates: Chord fingers vs learned index",
      substrate_bench );
    ( "chaos",
      "partition/heal/crash/recover soak with repair + invariants",
      chaos_bench );
    ("engine-sql", "SQL-over-P2P provenance split (§2/§6)", engine_sql);
    ( "baseline-unstructured",
      "flooding overlay vs the LSH/DHT (§1)",
      baseline_unstructured );
  ]

let () =
  let names = List.map (fun (name, _, _) -> name) sections in
  (match List.filter (fun name -> not (List.mem name names)) section_filter with
  | [] -> ()
  | unknown ->
    prerr_endline
      ("bench: unknown section " ^ String.concat ", " unknown
     ^ "; valid sections: " ^ String.concat " " names);
    exit 2);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun ((name, _, _) as section) ->
      if section_filter = [] || List.mem name section_filter then
        run_section section)
    sections;
  Format.printf "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0);
  (match json_path with
  | None -> ()
  | Some path ->
    let doc =
      Obs.Report.document
        [
          ("bench", Obs.Json.String "p2prange");
          ("seed", Obs.Json.String (Int64.to_string seed));
          ("sections", Obs.Json.Obj (List.rev !json_sections));
        ]
    in
    Obs.Json.to_file path doc;
    Format.printf "metrics written to %s@." path);
  (match series_path with
  | None -> ()
  | Some path ->
    Obs.Series.write path;
    Format.printf "series written to %s@." path);
  Option.iter Obs.Report.write_trace trace_path;
  if !gates_failed then exit 1
