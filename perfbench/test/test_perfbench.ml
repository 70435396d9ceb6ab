(* Tests of the benchmark harness itself: the percentile helper, the
   answer digest, and that a workload's deterministic metrics are a
   function of its seed. *)

module Pct = Perfbench.Pct
module Answers = Perfbench.Answers
module Bench = Perfbench.Bench
module W = Perfbench.Workloads
module Range = Rangeset.Range
module Query_result = P2prange.Query_result

(* {1 Percentiles} *)

let pct_ok samples p =
  match Pct.of_samples samples p with
  | Ok t -> t
  | Error e -> Alcotest.failf "refused: %s" e

let test_nearest_rank () =
  (* 1..100 shuffled: p50 is the 50th value, p90 the 90th. *)
  let samples = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  let p50 = pct_ok samples 0.5 and p90 = pct_ok samples 0.9 in
  Alcotest.(check (float 0.0)) "p50" 50.0 p50.Pct.value;
  Alcotest.(check int) "p50 n" 100 p50.Pct.n;
  Alcotest.(check int) "p50 beyond" 50 p50.Pct.beyond;
  Alcotest.(check (float 0.0)) "p90" 90.0 p90.Pct.value;
  Alcotest.(check int) "p90 beyond" 10 p90.Pct.beyond

let test_refuses_thin_tail () =
  let samples n = Array.init n float_of_int in
  (match Pct.of_samples (samples 99) 0.9 with
  | Ok t -> Alcotest.failf "p90 of 99 samples reported (%d beyond)" t.Pct.beyond
  | Error _ -> ());
  (match Pct.of_samples (samples 999) 0.99 with
  | Ok t -> Alcotest.failf "p99 of 999 samples reported (%d beyond)" t.Pct.beyond
  | Error _ -> ());
  (match Pct.of_samples [||] 0.5 with
  | Ok _ -> Alcotest.fail "percentile of nothing"
  | Error _ -> ());
  Alcotest.(check int) "p99 of 1000" 10 (pct_ok (samples 1000) 0.99).Pct.beyond;
  Alcotest.(check int) "p90 of 30 is rank 27" 3 (Pct.rank ~n:30 0.9 |> fun r -> 30 - r)

(* {1 Answer digest} *)

let range lo hi = Range.make ~lo ~hi

let result ?matched ~messages q =
  let matched =
    Option.map
      (fun m ->
        {
          P2prange.Matching.entry = { P2prange.Store.range = m; partition = None };
          score = Range.jaccard q m;
          jaccard = Range.jaccard q m;
          recall = Range.containment ~query:q ~answer:m;
        })
      matched
  in
  let similarity, recall =
    match matched with
    | None -> (0.0, 0.0)
    | Some s -> (s.P2prange.Matching.jaccard, s.P2prange.Matching.recall)
  in
  {
    Query_result.query = q;
    effective = q;
    matched;
    similarity;
    recall;
    stats = { Query_result.identifiers = [ 1; 2 ]; hops = [ 3; 4 ]; messages };
    cached = false;
    responders = 2;
    degraded = false;
  }

let log answers =
  let t = Answers.create (List.length answers) in
  List.iter
    (fun (q, m, messages) -> Answers.record_query t q (result ?matched:m ~messages q))
    answers;
  t

let test_digest () =
  let base = [ (range 1 9, Some (range 2 9), 7); (range 5 5, None, 3) ] in
  let d = Answers.digest (log base) in
  Alcotest.(check string) "same answers, same digest" d (Answers.digest (log base));
  let other_match = [ (range 1 9, Some (range 1 9), 7); (range 5 5, None, 3) ] in
  let other_cost = [ (range 1 9, Some (range 2 9), 8); (range 5 5, None, 3) ] in
  let reordered = List.rev base in
  List.iter
    (fun (name, answers) ->
      if Answers.digest (log answers) = d then
        Alcotest.failf "%s left the digest unchanged" name)
    [ ("another match", other_match); ("another cost", other_cost);
      ("another order", reordered) ];
  Alcotest.(check (list string)) "consistent answers pass" []
    (Answers.check (log base) ~fault_free:true)

let test_check_catches () =
  let q = range 0 9 in
  let good = result ~matched:(range 0 4) ~messages:5 q in
  let t = Answers.create 2 in
  Answers.record_query t q { good with Query_result.recall = 0.9 };
  Answers.record_query t q { good with Query_result.responders = 1 };
  Alcotest.(check int) "wrong recall and a missing responder" 2
    (List.length (Answers.check t ~fault_free:true));
  Alcotest.(check int) "a missing responder is fine under faults" 1
    (List.length (Answers.check t ~fault_free:false))

(* {1 Determinism} *)

let small_ops = 256

let fingerprint w ~seed =
  let stream = W.generate w ~seed ~ops:small_ops in
  let r = Bench.untraced w stream in
  Alcotest.(check (list string)) (w.W.name ^ " output checks") [] r.Bench.checks;
  r.Bench.fp

let test_workload_determinism (w : W.t) () =
  let a = fingerprint w ~seed:42 and b = fingerprint w ~seed:42 in
  if a <> b then Alcotest.failf "%s: two seed-42 runs differ" w.W.name;
  let c = fingerprint w ~seed:W.held_out_seed in
  if a.Bench.digest = c.Bench.digest then
    Alcotest.failf "%s: the held-out seed gave the same answers" w.W.name

let test_traced_matches_untraced () =
  let w = Option.get (W.find "churn-rw") in
  let stream = W.generate w ~seed:42 ~ops:small_ops in
  let u = Bench.untraced w stream and t = Bench.traced w stream in
  if u.Bench.fp <> t.Bench.fp then
    Alcotest.fail "the traced round changed the deterministic metrics"

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank with counts" `Quick test_nearest_rank;
          Alcotest.test_case "refuses fewer than ten beyond" `Quick
            test_refuses_thin_tail;
        ] );
      ( "answers",
        [
          Alcotest.test_case "digest tracks matches and costs" `Quick test_digest;
          Alcotest.test_case "checks catch inconsistent answers" `Quick
            test_check_catches;
        ] );
      ( "determinism",
        List.map
          (fun (w : W.t) ->
            Alcotest.test_case (w.W.name ^ " repeats per seed") `Slow
              (test_workload_determinism w))
          W.all
        @ [
            Alcotest.test_case "traced round repeats the untraced one" `Slow
              test_traced_matches_untraced;
          ] );
    ]
