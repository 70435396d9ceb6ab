(* The benchmark's command line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--spans FILE]

   Runs rounds of one workload for about [--seconds] (at least two
   untraced rounds; with [--trace 1], at least one untraced round paired
   with a traced one). Prints a report to stderr and, as the last
   line of stdout, one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. Exits 1 when an
   output check fails. *)

module W = Perfbench.Workloads
module B = Perfbench.Bench
module Pct = Perfbench.Pct
module Answers = Perfbench.Answers
module Clock = Perfbench.Clock
module Spans = Perfbench.Spans

let workload = ref ""
let seed = ref 42
let seconds = ref 30.0
let trace = ref 0
let spans_path = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spans", Arg.Set_string spans_path, "FILE write the traced spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [options]"

let w =
  match W.find !workload with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; known: %s\n" !workload
      (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
    exit 2

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* Runs [f] at least [min] times, then again while another run, as long
   as the last one, still ends within [seconds]; never starts one after
   [cap_s], to stay inside the run's time limit. *)
let cap_s = 100.0

let rounds ~min f =
  let t0 = Clock.now_ns () in
  let rec go acc k last =
    let elapsed = B.since t0 in
    if k >= 1 && (elapsed >= cap_s || (k >= min && elapsed +. last > !seconds))
    then List.rev acc
    else
      let r = f () in
      go (r :: acc) (k + 1) (B.since t0 -. elapsed)
  in
  go [] 0 0.0

(* [setup_s] is a median of at least this many set-ups. *)
let min_setups = 3

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)
let median xs = Stats.Summary.(median (of_list xs))

let pct ~name samples p =
  match Pct.of_samples samples p with
  | Ok t -> Some t
  | Error e ->
    problem "%s: %s" name e;
    None

(* p50 of a probe's samples; 0 where the layer never ran. *)
let p50 ~name samples =
  if Array.length samples = 0 then 0.0
  else match pct ~name samples 0.5 with Some t -> t.Pct.value | None -> 0.0

let check_round label (r : B.round) (first : B.fingerprint) =
  List.iter (fun c -> problem "%s: %s" label c) r.B.checks;
  if r.B.fp <> first then
    problem "%s: deterministic metrics differ from the first round" label

let () =
  let stream = W.generate w ~seed:!seed ~ops:w.W.ops in
  let traced = !trace = 1 in
  let pairs =
    if traced then rounds ~min:1 (fun () -> (B.untraced w stream, Some (B.traced w stream)))
    else rounds ~min:2 (fun () -> (B.untraced w stream, None))
  in
  let untraced = List.map fst pairs in
  let setups =
    List.map (fun (u : B.round) -> u.B.setup_s) untraced
    @
    if traced then []
    else
      List.init
        (Stdlib.max 0 (min_setups - List.length untraced))
        (fun _ -> B.setup_only w stream)
  in
  let first = (List.hd untraced).B.fp in
  List.iteri
    (fun i (u, t) ->
      check_round (Printf.sprintf "round %d" (i + 1)) u first;
      match t with
      | None -> ()
      | Some (t : B.layers) ->
        List.iter (fun c -> problem "traced round %d: %s" (i + 1) c) t.B.checks;
        if t.B.fp.B.digest <> first.B.digest then
          problem "traced round %d: answer stream differs from the untraced one"
            (i + 1);
        if t.B.fp <> first then
          problem "traced round %d: deterministic metrics differ" (i + 1))
    pairs;
  let s = first.B.summary in
  let all_summaries =
    List.concat_map
      (fun ((u : B.round), t) ->
        u.B.fp.B.summary :: Option.to_list (Option.map (fun (t : B.layers) -> t.B.fp.B.summary) t))
      pairs
  in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 all_summaries in
  let attempted = total (fun x -> x.Answers.attempted)
  and failed = total (fun x -> x.Answers.failed) in
  if failed > 0 then problem "%d ops raised" failed;
  let calls = stream.W.calls in
  (* Latency samples of the calls [keep] selects, pooled over rounds. *)
  let samples keep =
    let out = B.Samples.create 1024 in
    List.iter
      (fun (u : B.round) ->
        Array.iteri
          (fun i op ->
            let ns = u.B.call_ns.(i) in
            if keep op && ns >= 0 then B.Samples.add out (float_of_int ns *. 1e-3))
          calls)
      untraced;
    B.Samples.to_array out
  in
  let query_us = samples (function W.Query _ | W.Batch _ -> true | _ -> false)
  and publish_us = samples (function W.Publish _ -> true | _ -> false) in
  let lat name samples p =
    match pct ~name samples p with
    | Some t -> (t.Pct.value, Printf.sprintf "n=%d, beyond=%d" t.Pct.n t.Pct.beyond)
    | None -> (0.0, "refused")
  in
  let e2e =
    [
      ("setup_s", "s", median setups,
       Printf.sprintf "median of %d set-ups" (List.length setups));
      ( "throughput_ops_s", "ops/s",
        median
          (List.map (fun (u : B.round) -> float_of_int u.B.ops /. u.B.phase_s) untraced),
        Printf.sprintf "median of %d rounds of %d ops" (List.length untraced)
          s.Answers.attempted );
    ]
    @ List.map
        (fun (name, samples, p) ->
          let v, note = lat name samples p in
          (name, "us", v, note))
        [
          ("query_p50_us", query_us, 0.5);
          ("query_p90_us", query_us, 0.9);
          ("publish_p50_us", publish_us, 0.5);
          ("publish_p90_us", publish_us, 0.9);
        ]
    @ [
        ("msgs_per_query", "messages", s.Answers.msgs_per_query, "");
        ("hops_per_lookup", "hops", s.Answers.hops_per_lookup, "");
        ("recall_mean", "fraction", s.Answers.recall_mean, "");
        ("answered_frac", "fraction", fratio s.Answers.answered s.Answers.attempted, "");
        ("load_imbalance", "ratio", first.B.load_imbalance, "");
        ( "live_mib", "MiB",
          float_of_int (first.B.live_words * (Sys.word_size / 8)) /. 1048576.0,
          "" );
        ("invariant_violations", "count", float_of_int first.B.invariant_violations,
         "after recover-all and repair");
      ]
  in
  let layered =
    List.filter_map (fun (u, t) -> Option.map (fun t -> (u, t)) t) pairs
  in
  let layer_metrics ((u : B.round), (t : B.layers)) =
    let peers = float_of_int w.W.peers in
    let op_us =
      let sum = ref 0 in
      Array.iteri
        (fun i op -> if W.op_count op > 0 then sum := !sum + Stdlib.max 0 u.B.call_ns.(i))
        calls;
      float_of_int !sum *. 1e-3 /. float_of_int u.B.ops
    in
    let probe_us = float_of_int t.B.probe_ns *. 1e-3 /. float_of_int t.B.ops in
    let ops = float_of_int t.B.ops in
    [
      ("lsh.signature_us", "us", p50 ~name:"lsh.signature_us" t.B.sig_us);
      ("lsh.values_hashed_per_op", "values", float_of_int t.B.values_hashed /. ops);
      ("lsh.ns_per_value", "ns", fratio t.B.raw_hash_ns t.B.values_hashed);
      ("lsh.sig_cache_hit_frac", "fraction", fratio u.B.sig_hits u.B.sig_lookups);
      ("lsh.domain_cache_build_ms", "ms", t.B.domain_cache_build_ms);
      ("route.lookup_us", "us", p50 ~name:"route.lookup_us" t.B.route_us);
      ("route.ns_per_hop", "ns", fratio t.B.route_ns t.B.hops);
      ("chord.ring_build_ms", "ms", t.B.ring_build_ms);
      ("chord.ring_words_per_peer", "words", float_of_int t.B.ring_words /. peers);
      ( "chord.shortcut_frac", "fraction",
        fratio t.B.shortcuts (t.B.shortcuts + t.B.full_walks) );
      ("store.match_us", "us", p50 ~name:"store.match_us" t.B.store_us);
      ("store.candidates_per_serve", "entries", fratio t.B.candidates t.B.store_probes);
      ("store.useful_serve_frac", "fraction", fratio t.B.useful t.B.store_probes);
      ("store.entries_per_peer", "entries", float_of_int t.B.fp.B.entries /. peers);
      ("system.unattributed_us", "us", op_us -. probe_us);
      ("system.batch_repeat_frac", "fraction", fratio t.B.batch_repeats t.B.batch_ids);
      ("system.batch_peers_per_batch", "peers", fratio t.B.batch_peers t.B.batches);
      ("system.recover_ms", "ms", p50 ~name:"system.recover_ms" t.B.recover_ms);
      ("system.parked_hints_max", "identifiers", float_of_int t.B.parked_hints_max);
      ( "system.invariant_violations", "count",
        float_of_int u.B.fp.B.invariant_violations );
      ("balance.migrations_per_kop", "migrations", float_of_int t.B.migrations *. 1000.0 /. ops);
      ("balance.replicated_buckets_max", "buckets", float_of_int t.B.replicated_max);
      ("balance.scores_us", "us", p50 ~name:"balance.scores_us" t.B.scores_us);
      ("faults.sends_per_query", "sends", fratio t.B.sends t.B.queries);
      ("faults.retries_per_query", "retries", fratio t.B.retries t.B.queries);
      ("faults.timeouts_per_kop", "timeouts", float_of_int t.B.timeouts *. 1000.0 /. ops);
      ("gc.minor_words_per_op", "words", u.B.minor_words /. float_of_int u.B.ops);
      ("gc.promoted_words_per_op", "words", u.B.promoted_words /. float_of_int u.B.ops);
      ( "gc.major_collections_per_kop", "collections",
        float_of_int u.B.major_collections *. 1000.0 /. float_of_int u.B.ops );
      ("trace.coverage", "fraction", ratio probe_us op_us);
      ( "obs.trace_overhead_frac", "fraction",
        1.0
        -. ratio
             (float_of_int t.B.ops /. t.B.phase_s)
             (float_of_int u.B.ops /. u.B.phase_s) );
    ]
  in
  (* Per-layer metrics: the median over traced pairs of each metric. *)
  let per_layer =
    match List.map layer_metrics layered with
    | [] -> []
    | first :: _ as all ->
      List.mapi
        (fun i (name, unit, _) ->
          let values = List.map (fun m -> let _, _, v = List.nth m i in v) all in
          (name, unit, median values))
        first
  in
  if !spans_path <> "" then
    (match List.rev layered with
    | (_, t) :: _ -> Spans.write t.B.spans !spans_path
    | [] -> ());
  let reported =
    if traced then per_layer
    else
      (* invariant_violations is reported as a per-layer metric, since
         it is 0 on every workload but one. *)
      List.filter_map
        (fun (name, unit, v, _) ->
          if name = "invariant_violations" then None else Some (name, unit, v))
        e2e
  in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then problem "%s is not a finite number" name)
    reported;
  let correct = !problems = [] in
  let throughputs per =
    String.concat " "
      (List.map
         (fun (u : B.round) -> Printf.sprintf "%.0f" (float_of_int u.B.ops /. per u))
         untraced)
  in
  Printf.eprintf "perfbench %s seed=%d: %d untraced round(s) of %d ops%s\n" w.W.name
    !seed (List.length untraced) s.Answers.attempted
    (if traced then Printf.sprintf ", %d traced" (List.length layered) else "");
  List.iter
    (fun (name, unit, v, note) ->
      Printf.eprintf "  %-28s %14.4f %-9s %s\n" name v unit note)
    e2e;
  List.iter
    (fun (name, unit, v) -> Printf.eprintf "  %-28s %14.4f %s\n" name v unit)
    per_layer;
  Printf.eprintf "  round throughputs (ops/s): %s\n" (throughputs (fun u -> u.B.phase_s));
  Printf.eprintf "  per processor second:      %s\n"
    (throughputs (fun u -> u.B.phase_cpu_s));
  Printf.eprintf "  answer digest %s\n" first.B.digest;
  List.iter (fun p -> Printf.eprintf "  CHECK FAILED: %s\n" p) (List.rev !problems);
  Printf.eprintf "checks: %s\n%!" (if correct then "ok" else "FAILED");
  let metrics =
    List.map
      (fun (name, unit, v) ->
        (name, Obs.Json.(Obj [ ("value", Float v); ("unit", String unit) ])))
      reported
  in
  print_endline
    (Obs.Json.to_string ~indent:0
       (Obs.Json.Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]));
  exit (if correct then 0 else 1)
