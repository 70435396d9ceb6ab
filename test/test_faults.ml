(* The deterministic fault plane: seeded replay, drop/crash/partition
   semantics, retried rpcs and config validation. *)

module Plane = Faults.Plane
module Retry = Faults.Retry
module Err = P2prange.Error

let outcome_label = function
  | Plane.Delivered -> "delivered"
  | Plane.Dropped -> "dropped"
  | Plane.Unreachable -> "unreachable"

let same_seed_replays_bit_identically () =
  let spec = { Plane.no_faults with drop = 0.3 } in
  let a = Plane.create ~spec ~seed:11L () in
  let b = Plane.create ~spec ~seed:11L () in
  for i = 0 to 499 do
    let oa = Plane.send a ~src:0 ~dst:(i mod 17) in
    let ob = Plane.send b ~src:0 ~dst:(i mod 17) in
    let same =
      match (oa, ob) with
      | Plane.Delivered, Plane.Delivered -> true
      | Plane.Dropped, Plane.Dropped -> true
      | Plane.Unreachable, Plane.Unreachable -> true
      | _ -> false
    in
    if not same then
      Alcotest.failf "send %d diverged: %s vs %s" i (outcome_label oa)
        (outcome_label ob)
  done

let drop_extremes () =
  let never = Plane.create ~seed:1L () in
  for i = 0 to 99 do
    match Plane.send never ~src:0 ~dst:i with
    | Plane.Delivered -> ()
    | o -> Alcotest.failf "drop=0 lost a message (%s)" (outcome_label o)
  done;
  let always =
    Plane.create ~spec:{ Plane.no_faults with drop = 1.0 } ~seed:1L ()
  in
  for i = 0 to 99 do
    match Plane.send always ~src:0 ~dst:i with
    | Plane.Dropped -> ()
    | o -> Alcotest.failf "drop=1 delivered (%s)" (outcome_label o)
  done

let crash_windows_follow_the_clock () =
  let spec =
    {
      Plane.no_faults with
      crashes =
        [
          { Plane.node = 7; at = 2; recover_at = Some 5 };
          { Plane.node = 9; at = 0; recover_at = None };
        ];
    }
  in
  let p = Plane.create ~spec ~seed:3L () in
  Alcotest.(check bool) "9 down from t=0" true (Plane.crashed p 9);
  Alcotest.(check bool) "7 up before its window" false (Plane.crashed p 7);
  Plane.tick p;
  Plane.tick p;
  Alcotest.(check bool) "7 down at t=2" true (Plane.crashed p 7);
  (match Plane.send p ~src:0 ~dst:7 with
  | Plane.Unreachable -> ()
  | o -> Alcotest.failf "crashed node answered (%s)" (outcome_label o));
  Plane.tick p;
  Plane.tick p;
  Plane.tick p;
  Alcotest.(check bool) "7 recovered at t=5" false (Plane.crashed p 7);
  Alcotest.(check bool) "9 never recovers" true (Plane.crashed p 9)

let dynamic_crash_and_recover () =
  let p = Plane.create ~seed:4L () in
  Alcotest.(check bool) "initially up" false (Plane.crashed p 3);
  Plane.crash p 3;
  Alcotest.(check bool) "down after crash" true (Plane.crashed p 3);
  Plane.recover p 3;
  Plane.tick p;
  Alcotest.(check bool) "up after recover" false (Plane.crashed p 3);
  Plane.crash p ~recover_at:(Plane.now p + 2) 3;
  Alcotest.(check bool) "down inside window" true (Plane.crashed p 3);
  Plane.tick p;
  Plane.tick p;
  Alcotest.(check bool) "window expired on its own" false (Plane.crashed p 3);
  Alcotest.check_raises "recover_at must be in the future"
    (Invalid_argument "Faults.crash: recover_at must be in the future")
    (fun () -> Plane.crash p ~recover_at:(Plane.now p) 3)

let rpc_retries_recover_drops () =
  let spec = { Plane.no_faults with drop = 0.5 } in
  let p = Plane.create ~spec ~seed:7L () in
  let retry = { Retry.max_attempts = 8 } in
  let delivered = ref 0 and n = 200 in
  for _ = 1 to n do
    if Plane.rpc p ~retry ~src:0 ~dst:1 () then incr delivered
  done;
  (* 8 attempts at 50% loss: ~0.4% residual failure. *)
  Alcotest.(check bool)
    (Printf.sprintf "retries recover most drops (%d/%d)" !delivered n)
    true
    (!delivered > n * 9 / 10);
  (* The same plane without retries loses about half. *)
  let single = Plane.create ~spec ~seed:7L () in
  let lone = ref 0 in
  for _ = 1 to n do
    if Plane.rpc single ~retry:Retry.none ~src:0 ~dst:1 () then incr lone
  done;
  Alcotest.(check bool)
    (Printf.sprintf "single attempt loses many (%d/%d)" !lone n)
    true
    (!lone < n * 7 / 10)

let rpc_respects_attempts_and_crashes () =
  let p = Plane.create ~seed:8L () in
  Plane.crash p 5;
  if Plane.rpc p ~retry:Retry.default ~src:0 ~dst:5 () then
    Alcotest.fail "rpc to a crashed node succeeded";
  (* Multi-leg requests multiply the loss chance but still deliver on a
     clean plane. *)
  Alcotest.(check bool) "clean 4-leg rpc delivers" true
    (Plane.rpc p ~retry:Retry.none ~src:0 ~dst:1 ~legs:4 ())

(* The plane's seeded stream, pinned: 1 000 rpcs at 50 % loss alternating
   a single attempt with the default policy over 1-3 legs, then 100 plain
   sends from where that left the stream. Every draw of a send and of a
   retry moves the delivery digest or the trailing outcomes. *)
let rpc_stream_is_pinned () =
  let p = Plane.create ~spec:{ Plane.no_faults with drop = 0.5 } ~seed:7L () in
  let m_retries = Obs.Metrics.counter "faults.retries" in
  let m_timeouts = Obs.Metrics.counter "faults.timeouts" in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let retries0 = Obs.Metrics.counter_value m_retries in
  let timeouts0 = Obs.Metrics.counter_value m_timeouts in
  let fates = Buffer.create 1000 in
  for i = 0 to 999 do
    let retry = if i mod 2 = 0 then Retry.none else Retry.default in
    let ok =
      Plane.rpc p ~retry ~src:0 ~dst:(1 + (i mod 7)) ~legs:(1 + (i mod 3)) ()
    in
    Buffer.add_char fates (if ok then '1' else '0')
  done;
  let retries = Obs.Metrics.counter_value m_retries - retries0 in
  let timeouts = Obs.Metrics.counter_value m_timeouts - timeouts0 in
  if not was_enabled then Obs.Metrics.disable ();
  let fates = Buffer.contents fates in
  let delivered = String.fold_left (fun n c -> if c = '1' then n + 1 else n) 0 fates in
  Alcotest.(check int) "delivered" 475 delivered;
  Alcotest.(check string) "delivery digest" "6ed97af85417f05b29fcb92f61bb8439"
    (Digest.to_hex (Digest.string fates));
  Alcotest.(check int) "faults.retries delta" 789 retries;
  Alcotest.(check int) "faults.timeouts delta" 525 timeouts;
  let next =
    String.concat ""
      (List.init 100 (fun i ->
           match Plane.send p ~src:0 ~dst:(1 + (i mod 7)) with
           | Plane.Delivered -> "d"
           | Plane.Dropped -> "x"
           | Plane.Unreachable -> "u"))
  in
  Alcotest.(check string) "next 100 sends"
    ("ddxxdxdxxdxdxxddxxddxxxdddxdddxxdddxxxxdxddxxxxxxxxdxddddxxdddxdxxdxdx"
   ^ "ddxdxxdxddxdddxdxxxxxdxxdxddxx")
    next

let crashes_interleave_scheduled_and_dynamic () =
  (* Dynamic crash/recover composes with spec-scheduled windows on one
     clock: windows stack independently, and [recover] closes whatever is
     open right now — scheduled or not — without touching the future. *)
  let spec =
    {
      Plane.no_faults with
      crashes = [ { Plane.node = 4; at = 3; recover_at = Some 6 } ];
    }
  in
  let p = Plane.create ~spec ~seed:19L () in
  Alcotest.(check bool) "up before both windows" false (Plane.crashed p 4);
  (* Dynamic window [0, 2) ahead of the scheduled [3, 6). *)
  Plane.crash p ~recover_at:2 4;
  Alcotest.(check bool) "down in the dynamic window" true (Plane.crashed p 4);
  Plane.tick p;
  Plane.tick p;
  Alcotest.(check bool) "up in the gap between windows" false
    (Plane.crashed p 4);
  Plane.tick p;
  Alcotest.(check bool) "scheduled window opens at t=3" true
    (Plane.crashed p 4);
  (* Dynamic recover closes the scheduled window early… *)
  Plane.recover p 4;
  Alcotest.(check bool) "recover overrides the schedule" false
    (Plane.crashed p 4);
  Plane.tick p;
  Alcotest.(check bool) "stays closed inside the original window" false
    (Plane.crashed p 4);
  (* …and a fresh open-ended dynamic crash outlives the schedule. *)
  Plane.crash p 4;
  Plane.tick p;
  Plane.tick p;
  Plane.tick p;
  Alcotest.(check bool) "open-ended dynamic crash persists at t=7" true
    (Plane.crashed p 4);
  Plane.recover p 4;
  Alcotest.(check bool) "final recover brings it back" false
    (Plane.crashed p 4)

let scheduled_partitions_follow_the_clock () =
  let spec =
    {
      Plane.no_faults with
      partitions =
        [ { Plane.groups = [ [ 1; 2 ]; [ 3 ] ]; at = 2; heal_at = Some 5 } ];
    }
  in
  let p = Plane.create ~spec ~seed:17L () in
  let deliverable src dst =
    match Plane.send p ~src ~dst with
    | Plane.Delivered -> true
    | Plane.Dropped | Plane.Unreachable -> false
  in
  Alcotest.(check bool) "whole before the cut" true (deliverable 1 3);
  Plane.tick p;
  Plane.tick p;
  Alcotest.(check bool) "cut active at t=2" true
    (Plane.partitioned p ~src:1 ~dst:3);
  Alcotest.(check bool) "cross-group send blocked" false (deliverable 1 3);
  Alcotest.(check bool) "symmetric" false (deliverable 3 1);
  Alcotest.(check bool) "same group still talks" true (deliverable 1 2);
  (* Unlisted nodes share one implicit "rest" group. *)
  Alcotest.(check bool) "rest group is coherent" true (deliverable 7 9);
  Alcotest.(check bool) "rest cannot reach a listed group" false
    (deliverable 7 1);
  Plane.tick p;
  Plane.tick p;
  Plane.tick p;
  Alcotest.(check bool) "healed on schedule at t=5" false
    (Plane.partitioned p ~src:1 ~dst:3);
  Alcotest.(check bool) "whole again" true (deliverable 1 3)

let dynamic_partition_and_heal () =
  let p = Plane.create ~seed:18L () in
  Alcotest.(check bool) "whole initially" false
    (Plane.partitioned p ~src:0 ~dst:2);
  Plane.partition p [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "cut separates groups" true
    (Plane.partitioned p ~src:0 ~dst:2);
  Alcotest.(check bool) "same group unaffected" false
    (Plane.partitioned p ~src:0 ~dst:1);
  (* Overlapping cuts: endpoints must share a group under EVERY active
     cut. The second cut isolates 0 from the rest, splitting 0 from 1
     even though the first cut kept them together. *)
  Plane.partition p [ [ 0 ] ];
  Alcotest.(check bool) "second cut splits a former group" true
    (Plane.partitioned p ~src:0 ~dst:1);
  (match Plane.send p ~src:0 ~dst:1 with
  | Plane.Unreachable -> ()
  | o -> Alcotest.failf "partitioned send got through (%s)" (outcome_label o));
  Plane.heal p;
  Alcotest.(check bool) "heal closes every active cut" false
    (Plane.partitioned p ~src:0 ~dst:1
    || Plane.partitioned p ~src:0 ~dst:2);
  (match Plane.send p ~src:0 ~dst:1 with
  | Plane.Delivered -> ()
  | o -> Alcotest.failf "healed send failed (%s)" (outcome_label o));
  Alcotest.check_raises "dynamic cuts are validated too"
    (Err.Error
       {
         Err.code = Err.Invalid_config;
         message = "Faults: partition groups must be non-empty";
         context = [ ("field", "faults.partitions.groups"); ("value", "[]") ];
       })
    (fun () -> Plane.partition p [ [] ])

let partitions_consume_no_prng_draws () =
  (* A blocked send is decided before any draw, so a plane with an active
     cut replays the same drop stream as one without — interleaving
     cross-cut sends must not shift subsequent outcomes. *)
  let spec = { Plane.no_faults with drop = 0.4 } in
  let a = Plane.create ~spec ~seed:23L () in
  let b = Plane.create ~spec ~seed:23L () in
  Plane.partition b [ [ 5 ] ];
  let m_partitioned = Obs.Metrics.counter "faults.partitioned" in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let before = Obs.Metrics.counter_value m_partitioned in
  for i = 0 to 199 do
    (match Plane.send b ~src:0 ~dst:5 with
    | Plane.Unreachable -> ()
    | o -> Alcotest.failf "cut send %d got through (%s)" i (outcome_label o));
    let oa = Plane.send a ~src:0 ~dst:1 in
    let ob = Plane.send b ~src:0 ~dst:1 in
    if oa <> ob then
      Alcotest.failf "stream diverged at %d: %s vs %s" i (outcome_label oa)
        (outcome_label ob)
  done;
  Alcotest.(check int) "every blocked send counted" 200
    (Obs.Metrics.counter_value m_partitioned - before);
  if not was_enabled then Obs.Metrics.disable ()

(* Exact message + context regression: the fault plane speaks the same
   structured error as the rest of the public surface now ([P2perror] is
   re-exported as [P2prange.Error]), naming the offending field. *)
let validation_rejects_nonsense () =
  let expect name message context bad =
    Alcotest.check_raises name
      (Err.Error
         { Err.code = Err.Invalid_config; message; context })
      bad
  in
  expect "drop > 1" "Faults: drop must be in [0, 1]"
    [ ("field", "faults.drop"); ("value", "1.5") ]
    (fun () -> Plane.validate_spec { Plane.no_faults with drop = 1.5 });
  expect "inverted crash window" "Faults: recover_at must be after the crash time"
    [ ("field", "faults.crashes.recover_at"); ("value", "5") ]
    (fun () ->
      Plane.validate_spec
        {
          Plane.no_faults with
          crashes = [ { Plane.node = 1; at = 5; recover_at = Some 5 } ];
        });
  expect "negative crash time" "Faults: crash time must be non-negative"
    [ ("field", "faults.crashes.at"); ("value", "-1") ]
    (fun () ->
      Plane.validate_spec
        {
          Plane.no_faults with
          crashes = [ { Plane.node = 1; at = -1; recover_at = None } ];
        });
  expect "empty partition group" "Faults: partition groups must be non-empty"
    [ ("field", "faults.partitions.groups"); ("value", "[]") ]
    (fun () ->
      Plane.validate_spec
        {
          Plane.no_faults with
          partitions = [ { Plane.groups = [ [ 1 ]; [] ]; at = 0; heal_at = None } ];
        });
  expect "node in two groups"
    "Faults: a node may appear in at most one partition group"
    [ ("field", "faults.partitions.groups"); ("value", "2") ]
    (fun () ->
      Plane.validate_spec
        {
          Plane.no_faults with
          partitions =
            [ { Plane.groups = [ [ 1; 2 ]; [ 2; 3 ] ]; at = 0; heal_at = None } ];
        });
  expect "inverted partition window"
    "Faults: heal_at must be after the partition time"
    [ ("field", "faults.partitions.heal_at"); ("value", "3") ]
    (fun () ->
      Plane.validate_spec
        {
          Plane.no_faults with
          partitions = [ { Plane.groups = [ [ 1 ] ]; at = 3; heal_at = Some 3 } ];
        });
  expect "zero attempts" "Retry: max_attempts must be >= 1"
    [ ("field", "retry.max_attempts"); ("value", "0") ]
    (fun () -> Retry.validate { Retry.max_attempts = 0 });
  (* Config.validate forwards the plane's error untouched — no re-wrap. *)
  Alcotest.check_raises "through Config.validate"
    (Err.Error
       {
         Err.code = Err.Invalid_config;
         message = "Faults: drop must be in [0, 1]";
         context = [ ("field", "faults.drop"); ("value", "2.") ];
       })
    (fun () ->
      P2prange.Config.validate
        (P2prange.Config.default
        |> P2prange.Config.with_faults
             {
               P2prange.Config.spec = { Plane.no_faults with drop = 2.0 };
               retry = Retry.default;
             }))

let suite =
  [
    Alcotest.test_case "same seed replays bit-identically" `Quick
      same_seed_replays_bit_identically;
    Alcotest.test_case "drop probability extremes" `Quick drop_extremes;
    Alcotest.test_case "crash windows follow the logical clock" `Quick
      crash_windows_follow_the_clock;
    Alcotest.test_case "dynamic crash and recover" `Quick
      dynamic_crash_and_recover;
    Alcotest.test_case "crashes interleave scheduled and dynamic windows"
      `Quick crashes_interleave_scheduled_and_dynamic;
    Alcotest.test_case "scheduled partitions follow the logical clock" `Quick
      scheduled_partitions_follow_the_clock;
    Alcotest.test_case "dynamic partition and heal" `Quick
      dynamic_partition_and_heal;
    Alcotest.test_case "partitions consume no PRNG draws" `Quick
      partitions_consume_no_prng_draws;
    Alcotest.test_case "rpc retries recover drops" `Quick
      rpc_retries_recover_drops;
    Alcotest.test_case "rpc respects attempts and crashes" `Quick
      rpc_respects_attempts_and_crashes;
    Alcotest.test_case "seeded rpc stream is pinned" `Quick
      rpc_stream_is_pinned;
    Alcotest.test_case "validation rejects nonsense" `Quick
      validation_rejects_nonsense;
  ]
