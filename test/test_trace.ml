(* The tracing plane: disabled-mode no-ops, span-tree and logical-clock
   determinism, capacity bounding, exception safety, the JSONL/Chrome
   exports, and end-to-end traces of the query path — including the
   message-conservation invariant trace.exe enforces: every message a
   query pays for is attributed exactly once in its span subtree.

   The trace buffer is process-global, so every test runs inside
   [with_tracing], which enables + resets and restores the disabled
   default afterwards. *)

module T = Obs.Trace
module J = Obs.Json
module Range = Rangeset.Range
module Config = P2prange.Config
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result

let with_tracing f () =
  T.enable ();
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    f

(* --- helpers over the read-back API --- *)

let spans_named name = List.filter (fun s -> T.span_name s = name) (T.spans ())

let attr_int key attrs =
  match List.assoc_opt key attrs with Some (J.Int i) -> Some i | _ -> None

let descendants root =
  let module IS = Set.Make (Int) in
  let all = T.spans () in
  let rec grow ids =
    let grown =
      List.fold_left
        (fun acc s ->
          match T.span_parent s with
          | Some p when IS.mem p acc -> IS.add (T.span_id s) acc
          | Some _ | None -> acc)
        ids all
    in
    if IS.equal ids grown then ids else grow grown
  in
  let ids = grow (IS.singleton (T.span_id root)) in
  List.filter
    (fun s -> T.span_id s <> T.span_id root && IS.mem (T.span_id s) ids)
    all

(* Sum of [msgs] attributions in a query's subtree — the quantity
   trace.exe checks against the query span's [messages] attribute. *)
let attributed root =
  let event_msgs s =
    List.fold_left
      (fun acc (_, _, attrs) ->
        acc + Option.value (attr_int "msgs" attrs) ~default:0)
      0 (T.span_events s)
  in
  List.fold_left
    (fun acc s ->
      acc + event_msgs s
      + Option.value (attr_int "msgs" (T.span_attrs s)) ~default:0)
    (event_msgs root) (descendants root)

let check_conservation label query_span =
  match attr_int "messages" (T.span_attrs query_span) with
  | None -> Alcotest.fail (label ^ ": query span lacks a messages attribute")
  | Some claimed ->
    Alcotest.(check int)
      (label ^ ": subtree msgs sum to the messages attribute")
      claimed (attributed query_span)

(* --- core mechanics --- *)

let disabled_is_noop () =
  T.disable ();
  T.reset ();
  let v =
    T.with_span "outer" (fun () ->
        T.set_int "x" 1;
        T.event_i "e" "k" 2;
        41 + 1)
  in
  Alcotest.(check int) "thunk still runs" 42 v;
  Alcotest.(check int) "no spans recorded" 0 (T.span_count ());
  Alcotest.(check int) "clock untouched" 0 (T.clock_now ());
  Alcotest.(check bool) "no open span" true (T.current_id () = None)

let span_tree_and_clock () =
  T.with_span "a" (fun () ->
      T.set_int "x" 1;
      T.with_span "b" (fun () -> T.event_i "e" "k" 7);
      T.event "tail");
  match T.spans () with
  | [ a; b ] ->
    Alcotest.(check string) "outer name" "a" (T.span_name a);
    Alcotest.(check int) "outer id" 1 (T.span_id a);
    Alcotest.(check bool) "outer is a root" true (T.span_parent a = None);
    Alcotest.(check int) "outer starts the clock" 1 (T.span_start a);
    Alcotest.(check bool) "outer attr recorded" true
      (List.assoc_opt "x" (T.span_attrs a) = Some (J.Int 1));
    Alcotest.(check string) "inner name" "b" (T.span_name b);
    Alcotest.(check bool) "inner's parent is outer" true
      (T.span_parent b = Some 1);
    Alcotest.(check int) "inner starts at tick 2" 2 (T.span_start b);
    (match T.span_events b with
    | [ ("e", 3, [ ("k", J.Int 7) ]) ] -> ()
    | _ -> Alcotest.fail "inner event not recorded as expected");
    Alcotest.(check int) "inner stops at tick 4" 4 (T.span_stop b);
    (match T.span_events a with
    | [ ("tail", 5, []) ] -> ()
    | _ -> Alcotest.fail "outer event not recorded as expected");
    Alcotest.(check int) "outer stops at tick 6" 6 (T.span_stop a);
    Alcotest.(check int) "one tick per recorded timestamp" 6 (T.clock_now ())
  | spans ->
    Alcotest.failf "expected exactly 2 spans, got %d" (List.length spans)

let exception_safety () =
  (try
     T.with_span "outer" (fun () ->
         T.with_span "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "stack unwound" true (T.current_id () = None);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (T.span_name s ^ " closed despite the exception")
        true
        (T.span_stop s > T.span_start s))
    (T.spans ());
  Alcotest.(check int) "both spans recorded" 2 (T.span_count ())

let capacity_and_dropped () =
  T.set_capacity 2;
  Fun.protect
    ~finally:(fun () -> T.set_capacity 2_000_000)
    (fun () ->
      let ran = ref 0 in
      for _ = 1 to 3 do
        T.with_span "s" (fun () -> incr ran)
      done;
      Alcotest.(check int) "all three thunks ran" 3 !ran;
      Alcotest.(check int) "buffer capped at capacity" 2 (T.span_count ());
      Alcotest.(check int) "overflow counted" 1 (T.dropped ()))

(* --- exports --- *)

let small_run () =
  T.with_span "q" (fun () ->
      T.set_int "messages" 2;
      T.with_span "hop" (fun () -> T.set_int "msgs" 2);
      T.event_i "note" "k" 1)

let jsonl_reparses () =
  small_run ();
  let lines =
    String.split_on_char '\n' (T.to_jsonl ())
    |> List.filter (fun l -> l <> "")
  in
  (match lines with
  | header :: spans -> (
    Alcotest.(check int) "one line per span" (T.span_count ())
      (List.length spans);
    match J.of_string header with
    | Error msg -> Alcotest.fail ("header does not parse: " ^ msg)
    | Ok h ->
      Alcotest.(check bool) "header schema_version" true
        (J.member "schema_version" h = Some (J.Int 1));
      Alcotest.(check bool) "header kind" true
        (J.member "kind" h = Some (J.String "p2prange.trace"));
      Alcotest.(check bool) "header span count" true
        (J.member "spans" h = Some (J.Int (T.span_count ())));
      Alcotest.(check bool) "header clock" true
        (J.member "clock" h = Some (J.Int (T.clock_now ())));
      Alcotest.(check bool) "header dropped" true
        (J.member "dropped" h = Some (J.Int 0)))
  | [] -> Alcotest.fail "empty JSONL output");
  List.iteri
    (fun i line ->
      match J.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "line %d does not parse: %s" (i + 1) msg)
    lines

let chrome_structure () =
  small_run ();
  let doc = T.to_chrome () in
  match J.member "traceEvents" doc with
  | Some (J.List events) ->
    let n_events =
      List.fold_left
        (fun acc s -> acc + List.length (T.span_events s))
        0 (T.spans ())
    in
    Alcotest.(check int) "one X per span plus one i per event"
      (T.span_count () + n_events)
      (List.length events);
    List.iter
      (fun e ->
        (match J.member "ph" e with
        | Some (J.String ("X" | "i")) -> ()
        | _ -> Alcotest.fail "phase is neither X nor i");
        Alcotest.(check bool) "ts present" true
          (match J.member "ts" e with Some (J.Int _) -> true | _ -> false);
        Alcotest.(check bool) "span id in args" true
          (match J.member "args" e with
          | Some args -> (
            match J.member "span" args with Some (J.Int _) -> true | _ -> false)
          | None -> false))
      events
  | Some _ | None -> Alcotest.fail "no traceEvents list"

(* --- end-to-end traces of the query path --- *)

let quickstart_scenario () =
  let system = Sys_.create ~seed:2003L ~n_peers:16 () in
  let publisher = Sys_.peer_by_name system "peer-3" in
  ignore
    (Sys_.publish system ~from:publisher (Range.make ~lo:30 ~hi:50)
      : Query_result.lookup_stats);
  let asker = Sys_.peer_by_name system "peer-11" in
  Sys_.query system ~from:asker (Range.make ~lo:30 ~hi:49)

let system_query_trace () =
  let result = quickstart_scenario () in
  match spans_named "query" with
  | [ q ] ->
    Alcotest.(check bool) "query messages attr matches the result" true
      (attr_int "messages" (T.span_attrs q)
      = Some result.Query_result.stats.Query_result.messages);
    let below = descendants q in
    let names = List.sort_uniq compare (List.map T.span_name below) in
    List.iter
      (fun stage ->
        Alcotest.(check bool) ("query subtree covers " ^ stage) true
          (List.mem stage names))
      [ "signature"; "chord.lookup"; "serve"; "assemble" ];
    (* Every identifier route appears as a lookup span with hop events. *)
    let lookups =
      List.filter (fun s -> T.span_name s = "chord.lookup") below
    in
    Alcotest.(check int) "one lookup per identifier"
      (List.length result.Query_result.stats.Query_result.identifiers)
      (List.length lookups);
    List.iter2
      (fun lookup hops ->
        Alcotest.(check bool) "lookup records its hop count" true
          (attr_int "hops" (T.span_attrs lookup) = Some hops);
        let hop_events =
          List.filter (fun (n, _, _) -> n = "hop") (T.span_events lookup)
        in
        Alcotest.(check int) "one hop event per hop" hops
          (List.length hop_events))
      lookups result.Query_result.stats.Query_result.hops;
    check_conservation "single query" q
  | spans -> Alcotest.failf "expected 1 query span, got %d" (List.length spans)

let batch_trace_memo_refs () =
  let system = Sys_.create ~seed:2003L ~n_peers:16 () in
  let publisher = Sys_.peer_by_name system "peer-3" in
  ignore
    (Sys_.publish system ~from:publisher (Range.make ~lo:30 ~hi:50)
      : Query_result.lookup_stats);
  let asker = Sys_.peer_by_name system "peer-11" in
  let ranges =
    [
      Range.make ~lo:30 ~hi:49;
      Range.make ~lo:700 ~hi:800;
      (* A repeat of the first range replays the id memo. *)
      Range.make ~lo:30 ~hi:49;
    ]
  in
  let results = Sys_.query_batch system ~from:asker ranges in
  (match spans_named "batch" with
  | [ b ] ->
    Alcotest.(check bool) "batch span records its size" true
      (attr_int "size" (T.span_attrs b) = Some 3)
  | spans -> Alcotest.failf "expected 1 batch span, got %d" (List.length spans));
  let queries = spans_named "query" in
  Alcotest.(check int) "one query span per range" 3 (List.length queries);
  let route_ids = List.map T.span_id (spans_named "route") in
  List.iteri
    (fun i (q, result) ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d: batch_index recorded" i)
        true
        (attr_int "batch_index" (T.span_attrs q) = Some i);
      Alcotest.(check bool)
        (Printf.sprintf "query %d: messages attr matches the result" i)
        true
        (attr_int "messages" (T.span_attrs q)
        = Some result.Query_result.stats.Query_result.messages);
      check_conservation (Printf.sprintf "batch query %d" i) q;
      (* Memo hits cross-reference the span that paid for the route. *)
      List.iter
        (fun s ->
          List.iter
            (fun (name, _, attrs) ->
              if name = "batch.id_memo_hit" then
                match attr_int "resolved_in" attrs with
                | Some sid ->
                  Alcotest.(check bool)
                    "memo hit references a recorded route span" true
                    (List.mem sid route_ids)
                | None -> Alcotest.fail "memo hit lacks resolved_in")
            (T.span_events s))
        (q :: descendants q))
    (List.combine queries results);
  (* The duplicated range resolved every identifier from the memo. *)
  let third = List.nth queries 2 in
  let memo_hits =
    List.concat_map
      (fun s ->
        List.filter (fun (n, _, _) -> n = "batch.id_memo_hit") (T.span_events s))
      (third :: descendants third)
  in
  Alcotest.(check bool) "repeat query replays the memo" true
    (List.length memo_hits > 0)

let faulty_config =
  Config.default
  |> Config.with_faults
       {
         Config.spec = { Faults.Plane.no_faults with Faults.Plane.drop = 0.3 };
         retry = Faults.Retry.default;
       }

let faults_retry_trace () =
  let system = Sys_.create ~config:faulty_config ~seed:7L ~n_peers:16 () in
  let asker = Sys_.peer_by_name system "peer-2" in
  (* A stream of queries so the seeded drop rate is certain to trigger
     at least one retry somewhere. *)
  for lo = 0 to 9 do
    ignore
      (Sys_.query system ~from:asker (Range.make ~lo:(lo * 50) ~hi:((lo * 50) + 40))
        : Query_result.t)
  done;
  let rpcs = spans_named "rpc" in
  Alcotest.(check bool) "rpc spans recorded" true (rpcs <> []);
  List.iter
    (fun rpc ->
      match attr_int "attempts" (T.span_attrs rpc) with
      | Some n -> Alcotest.(check bool) "attempts >= 1" true (n >= 1)
      | None -> Alcotest.fail "rpc span lacks an attempts attribute")
    rpcs;
  let retries =
    List.concat_map
      (fun s -> List.filter (fun (n, _, _) -> n = "retry") (T.span_events s))
      rpcs
  in
  Alcotest.(check bool) "at least one retry recorded" true (retries <> []);
  List.iter
    (fun (_, _, attrs) ->
      match attr_int "attempt" attrs with
      | Some a -> Alcotest.(check bool) "retry attempt >= 1" true (a >= 1)
      | None -> Alcotest.fail "retry lacks an attempt attribute")
    retries

(* Tracing must not consume PRNG draws: a traced run and an untraced run
   of the same seeded system must produce identical results. *)
let tracing_does_not_perturb () =
  let run () =
    let system = Sys_.create ~config:faulty_config ~seed:7L ~n_peers:16 () in
    let asker = Sys_.peer_by_name system "peer-2" in
    List.map
      (fun lo ->
        let r = Sys_.query system ~from:asker (Range.make ~lo ~hi:(lo + 40)) in
        ( r.Query_result.stats.Query_result.messages,
          r.Query_result.recall,
          r.Query_result.responders,
          r.Query_result.degraded ))
      [ 0; 100; 250; 400; 700 ]
  in
  let traced = run () in
  T.disable ();
  let untraced = run () in
  T.enable ();
  Alcotest.(check bool) "traced and untraced runs agree" true
    (traced = untraced)

(* Same seed, same trace — byte for byte. *)
let run_twice_determinism () =
  ignore (quickstart_scenario () : Query_result.t);
  let first = T.to_jsonl () in
  T.reset ();
  ignore (quickstart_scenario () : Query_result.t);
  Alcotest.(check bool) "identical JSONL bytes across runs" true
    (first = T.to_jsonl ())

let suite =
  [
    Alcotest.test_case "disabled mode is a no-op" `Quick
      (with_tracing disabled_is_noop);
    Alcotest.test_case "span tree and logical clock" `Quick
      (with_tracing span_tree_and_clock);
    Alcotest.test_case "exception safety" `Quick (with_tracing exception_safety);
    Alcotest.test_case "capacity bounds the buffer" `Quick
      (with_tracing capacity_and_dropped);
    Alcotest.test_case "JSONL reparses line by line" `Quick
      (with_tracing jsonl_reparses);
    Alcotest.test_case "Chrome export structure" `Quick
      (with_tracing chrome_structure);
    Alcotest.test_case "end-to-end query trace" `Quick
      (with_tracing system_query_trace);
    Alcotest.test_case "batch trace with memo references" `Quick
      (with_tracing batch_trace_memo_refs);
    Alcotest.test_case "faults trace records retries" `Quick
      (with_tracing faults_retry_trace);
    Alcotest.test_case "tracing never consumes PRNG draws" `Quick
      (with_tracing tracing_does_not_perturb);
    Alcotest.test_case "run-twice determinism" `Quick
      (with_tracing run_twice_determinism);
  ]
