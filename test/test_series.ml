(* The flight-recorder timeline plane ([Obs.Series]) over the shared
   [Obs.Metrics] instruments, and its reader ([Obs.Timeline]): windowed
   flush semantics, the ring bound, one record call feeding both planes
   (and only the planes that are on), the one-flag zero-allocation
   discipline when off, wall-clock instruments kept off the timeline,
   byte-identical determinism of the JSONL export, the Prometheus
   exposition, the Timeline change-point checks, and — at the [System]
   level — that enabling the plane never changes a query's answers.

   Both planes are process-global and shared with the instrumented
   libraries, so every test runs inside [isolated]: reset, configure,
   enable the series plane alone, and restore the disabled defaults
   afterwards. Instrument names are namespaced test.series.* to stay
   clear of the library's own instruments. *)

module M = Obs.Metrics
module S = Obs.Series
module T = Obs.Timeline

let isolated ?(window = 4) f () =
  S.reset ();
  S.set_window window;
  S.set_capacity 65536;
  M.disable ();
  M.reset ();
  S.enable ();
  Fun.protect
    ~finally:(fun () ->
      S.disable ();
      S.reset ();
      M.disable ();
      M.reset ();
      S.set_window 64;
      S.set_capacity 65536)
    f

let ticks n =
  for _ = 1 to n do
    S.tick ()
  done

let parse_timeline () =
  match T.of_string (S.to_jsonl ()) with
  | Ok t -> t
  | Error msg -> Alcotest.fail ("series did not parse: " ^ msg)

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

(* --- flush semantics --- *)

let windowed_flush () =
  let c = M.counter "test.series.flush.c" in
  let g = M.gauge "test.series.flush.g" in
  let h = M.histogram "test.series.flush.h" in
  (* Window 1 (ticks 1-4): counter +3, gauge 1 then 2, histo {4;5}. *)
  M.incr c;
  M.add c 2;
  M.set_gauge g 1.0;
  M.set_gauge g 2.0;
  M.observe h 4.0;
  M.observe_int h 5;
  ticks 4;
  (* Window 2 (ticks 5-8): silence — sparse series emit no points. *)
  ticks 4;
  (* Window 3 (ticks 9-12): counter +1 only. *)
  M.incr c;
  ticks 4;
  let t = parse_timeline () in
  Alcotest.(check int) "clock" 12 t.T.clock;
  Alcotest.(check int) "window" 4 t.T.window;
  let series metric = T.series t ~metric ~labels:[] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "counter flushes window increments"
    [ (4, 3.0); (12, 1.0) ]
    (series "test.series.flush.c");
  Alcotest.(check (list (pair int (float 1e-9))))
    "gauge flushes its last write"
    [ (4, 2.0) ]
    (series "test.series.flush.g");
  (match
     List.filter (fun p -> p.T.metric = "test.series.flush.h") t.T.points
   with
  | [ { T.value = T.Summary { n; sum; lo; hi }; at; _ } ] ->
    Alcotest.(check int) "histo point at window end" 4 at;
    Alcotest.(check int) "histo n" 2 n;
    Alcotest.(check (float 1e-9)) "histo sum" 9.0 sum;
    Alcotest.(check (float 1e-9)) "histo min" 4.0 lo;
    Alcotest.(check (float 1e-9)) "histo max" 5.0 hi
  | ps -> Alcotest.failf "expected one histo summary point, got %d" (List.length ps));
  Alcotest.(check (list int))
    "mark ticks" [ 12 ]
    (T.mark_ticks
       (let () = S.mark "test.series.flush.mark" in
        parse_timeline ())
       "test.series.flush.mark")

let open_window_flushes_on_export () =
  let c = M.counter "test.series.open.c" in
  ticks 4;
  M.add c 7;
  ticks 2;
  (* Mid-window export: the open window (ticks 5-6) flushes at tick 6. *)
  let t = parse_timeline () in
  Alcotest.(check (list (pair int (float 1e-9))))
    "open window flushed at the current tick"
    [ (6, 7.0) ]
    (T.series t ~metric:"test.series.open.c" ~labels:[])

let labelled_instruments () =
  let c = M.counter ~label:"peer" "test.series.lbl.c" in
  let h = M.histogram ~label:"sys" "test.series.lbl.h" in
  M.incr1 c "peer-1";
  M.incr1 c "peer-1";
  M.incr1 c "peer-9";
  M.observe1 h "a" 1.0;
  M.observe1 h "b" 0.5;
  ticks 4;
  let t = parse_timeline () in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "selectors are sorted and distinct"
    [
      ("test.series.lbl.c", [ ("peer", "peer-1") ]);
      ("test.series.lbl.c", [ ("peer", "peer-9") ]);
      ("test.series.lbl.h", [ ("sys", "a") ]);
      ("test.series.lbl.h", [ ("sys", "b") ]);
    ]
    (T.selectors t);
  Alcotest.(check (list (pair int (float 1e-9))))
    "per-label timelines are independent"
    [ (4, 2.0) ]
    (T.series t ~metric:"test.series.lbl.c" ~labels:[ ("peer", "peer-1") ])

let kind_clash_rejected () =
  (* A later lookup by name ignores its label key; only a different kind
     is an error. *)
  let _ = M.counter ~label:"peer" "test.series.clash" in
  M.incr1 (M.counter ~label:"node" "test.series.clash") "peer-1";
  ticks 4;
  Alcotest.(check (list (pair string (list (pair string string)))))
    "the first label key wins"
    [ ("test.series.clash", [ ("peer", "peer-1") ]) ]
    (T.selectors (parse_timeline ()));
  match M.gauge "test.series.clash" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind clash"
  | exception Invalid_argument _ -> ()

(* --- one instrument, two planes --- *)

let one_call_feeds_both_planes () =
  M.enable ();
  let c = M.counter ~label:"peer" "test.series.both.c" in
  let h = M.histogram ~label:"sys" "test.series.both.h" in
  M.incr1 c "peer-1";
  M.incr1 c "peer-2";
  M.incr1 c "peer-2";
  M.observe1 h "chaos" 0.5;
  M.observe1 h "twin" 1.0;
  ticks 4;
  Alcotest.(check int) "counter total sums every label" 3 (M.counter_value c);
  Alcotest.(check int) "histogram total counts every label" 2 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "histogram total mean" 0.75 (M.hist_mean h);
  let t = parse_timeline () in
  let series metric labels = T.series t ~metric ~labels in
  Alcotest.(check (list (pair int (float 1e-9))))
    "per-label counter points"
    [ (4, 1.0); (4, 2.0) ]
    (series "test.series.both.c" [ ("peer", "peer-1") ]
    @ series "test.series.both.c" [ ("peer", "peer-2") ]);
  Alcotest.(check (list (pair int (float 1e-9))))
    "per-label histogram points"
    [ (4, 0.5); (4, 1.0) ]
    (series "test.series.both.h" [ ("sys", "chaos") ]
    @ series "test.series.both.h" [ ("sys", "twin") ])

let only_enabled_plane_records () =
  let c = M.counter ~label:"peer" "test.series.alone.c" in
  (* Series plane alone (the [isolated] default). *)
  M.incr1 c "peer-1";
  ticks 4;
  Alcotest.(check int) "snapshot plane off: no total" 0 (M.counter_value c);
  (* Snapshot plane alone. *)
  S.disable ();
  M.enable ();
  M.incr1 c "peer-1";
  M.incr1 c "peer-1";
  S.enable ();
  ticks 4;
  Alcotest.(check int) "snapshot plane on: its total" 2 (M.counter_value c);
  Alcotest.(check (list (pair int (float 1e-9))))
    "only the series-on window has a point"
    [ (4, 1.0) ]
    (T.series (parse_timeline ()) ~metric:"test.series.alone.c"
       ~labels:[ ("peer", "peer-1") ])

let wall_clock_stays_off_the_timeline () =
  M.enable ();
  let g = M.wall_gauge "test.series.wall.g" in
  M.set_gauge g 123.0;
  ticks 4;
  Alcotest.(check (float 0.0)) "the snapshot plane recorded" 123.0
    (M.gauge_value g);
  Alcotest.(check bool) "absent from the JSONL" false
    (contains (S.to_jsonl ()) "test.series.wall")

(* --- ring bound --- *)

let ring_bound_drops_oldest () =
  S.set_capacity 8;
  let c = M.counter "test.series.ring.c" in
  for _ = 1 to 20 do
    M.incr c;
    ticks 4
  done;
  Alcotest.(check int) "ring holds capacity points" 8 (S.point_count ());
  Alcotest.(check int) "overwritten points are counted" 12 (S.dropped ());
  let t = parse_timeline () in
  (* The flight recorder keeps the most recent history: the surviving
     points are the last 8 windows, ending at the current clock. *)
  let ats = List.map (fun (at, _) -> at) (T.series t ~metric:"test.series.ring.c" ~labels:[]) in
  Alcotest.(check (list int))
    "most recent windows survive"
    [ 52; 56; 60; 64; 68; 72; 76; 80 ]
    ats;
  Alcotest.(check int) "header reports drops" 12 t.T.dropped

(* --- one-flag discipline --- *)

let disabled_is_noop () =
  let c = M.counter ~label:"peer" "test.series.off.c" in
  let g = M.gauge "test.series.off.g" in
  let h = M.histogram "test.series.off.h" in
  S.disable ();
  M.incr c;
  M.incr1 c "peer-1";
  M.set_gauge g 9.0;
  M.observe h 1.0;
  S.mark "test.series.off.mark";
  ticks 50;
  S.enable ();
  Alcotest.(check int) "no points recorded" 0 (S.point_count ());
  Alcotest.(check int) "clock did not advance" 0 (S.now ());
  let t = parse_timeline () in
  Alcotest.(check (list int)) "no marks recorded" []
    (T.mark_ticks t "test.series.off.mark")

let disabled_allocates_nothing () =
  let c = M.counter ~label:"peer" "test.series.alloc.c" in
  let g = M.gauge "test.series.alloc.g" in
  let h = M.histogram ~label:"sys" "test.series.alloc.h" in
  S.disable ();
  M.disable ();
  let x = 0.25 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    M.incr c;
    M.add c 3;
    M.incr1 c "peer-1";
    M.set_gauge g x;
    M.observe h x;
    M.observe_int h 7;
    M.observe1 h "chaos" x;
    S.mark_i "test.series.alloc.mark" "node" 42;
    S.mark_s "test.series.alloc.mark" "peer" "peer-1";
    S.tick ()
  done;
  let after = Gc.minor_words () in
  S.enable ();
  (* Slop covers the boxed floats the two Gc.minor_words calls return —
     anything beyond that means a record path allocates while disabled. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled record path allocates nothing (delta %.0f words)"
       (after -. before))
    true
    (after -. before <= 16.0);
  Alcotest.(check int) "no snapshot total either" 0 (M.counter_value c)

(* --- determinism --- *)

let scripted_run () =
  S.reset ();
  S.set_window 4;
  S.enable ();
  let c = M.counter ~label:"peer" "test.series.det.c" in
  let h = M.histogram "test.series.det.h" in
  let g = M.gauge "test.series.det.g" in
  for i = 1 to 40 do
    M.incr1 c (if i mod 3 = 0 then "peer-a" else "peer-b");
    M.observe h (float_of_int (i mod 7));
    M.set_gauge g (float_of_int i /. 8.0);
    if i = 10 then S.mark_i "test.series.det.mark" "node" 99;
    S.tick ()
  done;
  S.to_jsonl ()

let jsonl_deterministic () =
  let first = scripted_run () in
  let second = scripted_run () in
  Alcotest.(check string) "same script, byte-identical JSONL" first second

let system_timeline_deterministic () =
  (* The real instrumented stack: a faulted system plus its plane, driven
     twice with the same seed — marks, per-peer labels and windowed
     curves included, the exports must agree byte for byte. *)
  let module Config = P2prange.Config in
  let module System = P2prange.System in
  let run () =
    S.reset ();
    S.set_window 16;
    S.enable ();
    let config =
      Config.default
      |> Config.with_matching Config.Containment_match
      |> Config.with_kl ~k:Config.default.Config.k ~l:1
      |> Config.with_hinted_handoff true
      |> Config.with_faults
           {
             Config.spec = Faults.Plane.no_faults;
             retry = Faults.Retry.default;
           }
    in
    let sys = System.create ~config ~seed:42L ~n_peers:16 () in
    let plane = Option.get (System.fault_plane sys) in
    let peers = Array.of_list (System.peers sys) in
    let stream =
      Workload.Query_workload.create
        (Workload.Query_workload.Repeating { unique = 32 })
        ~domain:config.Config.domain ~seed:42L
    in
    let publish i =
      ignore
        (System.publish sys ~from:peers.(8 + (i mod 8))
           (Workload.Query_workload.next stream)
          : P2prange.Query_result.lookup_stats)
    in
    let query i =
      ignore
        (System.query sys ~from:peers.(8 + (i mod 8))
           (Workload.Query_workload.next stream)
          : P2prange.Query_result.t)
    in
    for i = 1 to 60 do
      publish i
    done;
    Faults.Plane.crash plane (P2prange.Peer.id peers.(0));
    for i = 1 to 60 do
      if i mod 3 = 0 then publish i else query i
    done;
    Faults.Plane.recover plane (P2prange.Peer.id peers.(0));
    System.repair sys;
    for i = 1 to 30 do
      query i
    done;
    S.to_jsonl ()
  in
  let first = run () in
  let second = run () in
  Alcotest.(check string) "same seed, byte-identical timeline" first second;
  (* And the scenario actually produced marks + per-window points. *)
  match T.of_string first with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    Alcotest.(check int)
      "crash mark recorded once" 1
      (List.length (T.mark_ticks t "faults.crash"));
    Alcotest.(check bool) "repair mark present" true
      (T.mark_ticks t "system.repair" <> []);
    Alcotest.(check bool) "windowed points present" true (t.T.points <> [])

let queries_unchanged_by_series () =
  (* Flight-recorder neutrality: the same seeded workload returns
     value-identical answers whether the plane is off or on. *)
  let module Config = P2prange.Config in
  let module System = P2prange.System in
  let run () =
    let config =
      Config.default
      |> Config.with_matching Config.Containment_match
      |> Config.with_kl ~k:Config.default.Config.k ~l:1
    in
    let sys = System.create ~config ~seed:7L ~n_peers:12 () in
    let peers = Array.of_list (System.peers sys) in
    let stream =
      Workload.Query_workload.create
        (Workload.Query_workload.Repeating { unique = 32 })
        ~domain:config.Config.domain ~seed:7L
    in
    for i = 0 to 49 do
      ignore
        (System.publish sys ~from:peers.(i mod 12)
           (Workload.Query_workload.next stream)
          : P2prange.Query_result.lookup_stats)
    done;
    List.init 50 (fun i ->
        let r =
          System.query sys ~from:peers.(i mod 12)
            (Workload.Query_workload.next stream)
        in
        (r.P2prange.Query_result.recall, r.P2prange.Query_result.stats))
  in
  S.disable ();
  let off = run () in
  S.reset ();
  S.set_window 4;
  S.enable ();
  let on = run () in
  Alcotest.(check bool) "answers identical with the plane on" true (off = on);
  Alcotest.(check bool) "the plane did record something" true
    (S.point_count () > 0 || S.now () > 0)

(* --- the Timeline change-point gates --- *)

let dip_scenario () =
  S.reset ();
  S.set_window 4;
  S.enable ();
  let h = M.histogram ~label:"sys" "test.series.gate.recall" in
  (* 5 healthy windows at recall 1.0, a fault mark, then windows at 0.5
     for one side while the twin stays at 1.0, then both recover. *)
  for _ = 1 to 5 do
    for _ = 1 to 4 do
      M.observe1 h "chaos" 1.0;
      M.observe1 h "twin" 1.0;
      S.tick ()
    done
  done;
  S.mark "test.series.gate.fault";
  for _ = 1 to 3 do
    for _ = 1 to 4 do
      M.observe1 h "chaos" 0.5;
      M.observe1 h "twin" 1.0;
      S.tick ()
    done
  done;
  S.mark "test.series.gate.repair";
  for _ = 1 to 4 do
    for _ = 1 to 4 do
      M.observe1 h "chaos" 0.9;
      M.observe1 h "twin" 0.9;
      S.tick ()
    done
  done;
  parse_timeline ()

let check_dip_gate () =
  let t = dip_scenario () in
  (match
     T.check_dip t ~metric:"test.series.gate.recall"
       ~labels:[ ("sys", "chaos") ]
       ~mark:"test.series.gate.fault" ~within:8 ~min_dip:0.2
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("dip should pass: " ^ msg));
  (match
     T.check_dip t ~metric:"test.series.gate.recall"
       ~labels:[ ("sys", "twin") ]
       ~mark:"test.series.gate.fault" ~within:8 ~min_dip:0.2
   with
  | Ok msg -> Alcotest.fail ("twin never dips, yet: " ^ msg)
  | Error _ -> ());
  match
    T.check_dip t ~metric:"test.series.gate.recall"
      ~labels:[ ("sys", "chaos") ]
      ~mark:"test.series.gate.missing" ~within:8 ~min_dip:0.2
  with
  | Ok msg -> Alcotest.fail ("missing mark, yet: " ^ msg)
  | Error _ -> ()

let check_converge_gate () =
  let t = dip_scenario () in
  (match
     T.check_converge t ~metric:"test.series.gate.recall"
       ~labels_a:[ ("sys", "chaos") ]
       ~labels_b:[ ("sys", "twin") ]
       ~mark:"test.series.gate.repair" ~eps:0.01
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("converge should pass: " ^ msg));
  match
    T.check_converge t ~metric:"test.series.gate.recall"
      ~labels_a:[ ("sys", "chaos") ]
      ~labels_b:[ ("sys", "twin") ]
      ~mark:"test.series.gate.fault" ~eps:0.01
  with
  | Ok msg ->
    (* After the *fault* mark the curves disagree for 3 windows before
       recovering together; pooled means differ by ~0.1. *)
    Alcotest.fail ("diverged window should fail: " ^ msg)
  | Error _ -> ()

let timeline_rejects_garbage () =
  (match T.of_string "" with
  | Ok _ -> Alcotest.fail "empty input accepted"
  | Error _ -> ());
  (match T.of_string "{\"schema_version\":2,\"kind\":\"p2prange.series\"}" with
  | Ok _ -> Alcotest.fail "wrong schema_version accepted"
  | Error _ -> ());
  match T.of_string "{\"schema_version\":1,\"kind\":\"p2prange.trace\"}" with
  | Ok _ -> Alcotest.fail "wrong kind accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "windowed flush semantics" `Quick
      (isolated windowed_flush);
    Alcotest.test_case "open windows flush on export" `Quick
      (isolated open_window_flushes_on_export);
    Alcotest.test_case "labelled instruments split timelines" `Quick
      (isolated labelled_instruments);
    Alcotest.test_case "registry rejects cross-kind name reuse" `Quick
      (isolated kind_clash_rejected);
    Alcotest.test_case "one record call feeds both planes" `Quick
      (isolated one_call_feeds_both_planes);
    Alcotest.test_case "only an enabled plane records" `Quick
      (isolated only_enabled_plane_records);
    Alcotest.test_case "wall-clock instruments stay off the timeline" `Quick
      (isolated wall_clock_stays_off_the_timeline);
    Alcotest.test_case "ring bound drops oldest, counts drops" `Quick
      (isolated ring_bound_drops_oldest);
    Alcotest.test_case "disabled mode is a no-op" `Quick
      (isolated disabled_is_noop);
    Alcotest.test_case "disabled record path allocates nothing" `Quick
      (isolated disabled_allocates_nothing);
    Alcotest.test_case "JSONL export is deterministic" `Quick
      (isolated jsonl_deterministic);
    Alcotest.test_case "system timeline is byte-reproducible" `Quick
      (isolated system_timeline_deterministic);
    Alcotest.test_case "enabling the plane never changes answers" `Quick
      (isolated queries_unchanged_by_series);
    Alcotest.test_case "change-point dip gate" `Quick (isolated check_dip_gate);
    Alcotest.test_case "convergence gate" `Quick (isolated check_converge_gate);
    Alcotest.test_case "timeline rejects non-series input" `Quick
      (isolated timeline_rejects_garbage);
  ]
