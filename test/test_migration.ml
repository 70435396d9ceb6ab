(* lib/balance/migration.ml and its wiring through System: planner
   mechanics (threshold, target choice, half selection, hysteresis),
   fault-free transparency of the Migrate policy, determinism at a fixed
   seed, inertness of the wiring when migration never triggers,
   crash-of-the-slice-holder fallback, and the Replicate_and_migrate
   composition's recall floor. *)

module Range = Rangeset.Range
module Tracker = Balance.Tracker
module Migration = Balance.Migration
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result
module Config = P2prange.Config
module Peer = P2prange.Peer

let mk lo hi = Range.make ~lo ~hi

let spec_validation () =
  let ok = { Migration.check_every = 4; overload = 1.5; cooldown = 1; min_share = 4 } in
  Migration.validate_spec ok;
  Alcotest.check_raises "check_every"
    (Invalid_argument "Migration: check_every must be >= 1") (fun () ->
      Migration.validate_spec { ok with Migration.check_every = 0 });
  Alcotest.check_raises "overload"
    (Invalid_argument "Migration: overload factor must exceed 1.0") (fun () ->
      Migration.validate_spec { ok with Migration.overload = 1.0 });
  Alcotest.check_raises "cooldown"
    (Invalid_argument "Migration: cooldown must be >= 0") (fun () ->
      Migration.validate_spec { ok with Migration.cooldown = -1 });
  Alcotest.check_raises "min_share"
    (Invalid_argument "Migration: min_share must be >= 1") (fun () ->
      Migration.validate_spec { ok with Migration.min_share = 0 });
  (* The same constraints surface through Config.validate. *)
  let bad =
    { Config.default with
      Config.balancing =
        Config.Migrate { Config.default_migrate with Config.overload = 0.5 };
    }
  in
  Alcotest.check_raises "config overload"
    (P2prange.Error.Error
       {
         P2prange.Error.code = P2prange.Error.Invalid_config;
         message = "Config: migration overload factor must exceed 1.0";
         context = [ ("field", "balancing.overload"); ("value", "0.5") ];
       })
    (fun () -> Config.validate bad)

(* Drive the planner directly on a synthetic three-node ring:
   100 -> 200 -> 300, each peer's id its ring position. *)
let planner_unit () =
  let mg =
    Migration.create
      { Migration.check_every = 4; overload = 1.5; cooldown = 1; min_share = 4 }
  in
  let peers = [ 100; 200; 300 ] in
  let predecessor = function
    | 100 -> 300
    | 200 -> 100
    | 300 -> 200
    | _ -> Alcotest.fail "unknown position"
  in
  let tick ?(scores = fun () -> []) () =
    Migration.tick mg ~peers
      ~responsive:(fun _ -> true)
      ~predecessor
      ~scores
  in
  (* Round 1: peer 200 serves 8 of 10 lookups — mean 10/3, trigger at
     1.5x mean = 5, so 200 is the source; 100 and 300 tie at 1 and the
     earlier peer (100) is the target. *)
  for _ = 1 to 6 do
    Migration.note_serve mg ~position:200 ~identifier:120 ~peer:200
  done;
  for _ = 1 to 2 do
    Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200
  done;
  Migration.note_serve mg ~position:100 ~identifier:50 ~peer:100;
  Migration.note_serve mg ~position:300 ~identifier:250 ~peer:300;
  (* Nothing happens before the round closes. *)
  for _ = 1 to 3 do
    match tick ~scores:(fun () -> [ (120, 5) ]) () with
    | None -> ()
    | Some _ -> Alcotest.fail "planned before the round closed"
  done;
  Alcotest.(check int) "no migrations yet" 0 (Migration.migrations mg);
  (* Fourth tick closes the round. Segment (100, 200] splits at 150; the
     lower half holds all the score, so it migrates. *)
  (match tick ~scores:(fun () -> [ (120, 5); (180, 2) ]) () with
  | None -> Alcotest.fail "expected a migration"
  | Some mv ->
    Alcotest.(check int) "position" 200 mv.Migration.position;
    Alcotest.(check int) "source" 200 mv.Migration.source;
    Alcotest.(check int) "target" 100 mv.Migration.target;
    Alcotest.(check int) "slice lo" 100 mv.Migration.lo;
    Alcotest.(check int) "slice hi" 150 mv.Migration.hi);
  Alcotest.(check int) "one migration" 1 (Migration.migrations mg);
  Alcotest.(check int) "one slice" 1 (Migration.slice_count mg);
  Alcotest.(check (option int)) "slice redirects" (Some 100)
    (Migration.holder mg ~position:200 ~identifier:120);
  Alcotest.(check (option int)) "kept half stays native" None
    (Migration.holder mg ~position:200 ~identifier:180);
  (* Round 2: both parties are cooling, so even the same overload plans
     nothing. *)
  for _ = 1 to 8 do
    Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200
  done;
  Migration.note_serve mg ~position:100 ~identifier:50 ~peer:100;
  Migration.note_serve mg ~position:300 ~identifier:250 ~peer:300;
  for _ = 1 to 4 do
    match tick () with
    | None -> ()
    | Some _ -> Alcotest.fail "migrated during cooldown"
  done;
  Alcotest.(check int) "hysteresis held" 1 (Migration.migrations mg);
  (* Round 3: cooldown expired; the next slice carves from the kept
     native half (150, 200], and 300 is now the least loaded. *)
  for _ = 1 to 8 do
    Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200
  done;
  Migration.note_serve mg ~position:100 ~identifier:50 ~peer:100;
  for _ = 1 to 4 do
    ignore (tick () : Migration.move option)
  done;
  Alcotest.(check int) "second migration" 2 (Migration.migrations mg);
  Alcotest.(check (option int)) "second slice goes to peer 300" (Some 300)
    (Migration.holder mg ~position:200 ~identifier:160);
  (* Round 4 is cooldown again; round 5: the first slice's holder (100)
     is itself hammered through the slice and re-splits it — received
     slices shed exactly like native segments. The hot quarter (100, 125]
     goes to the least-loaded peer, 200 — the native owner — so lookups
     for it stop redirecting altogether. *)
  for _ = 1 to 4 do
    ignore (tick () : Migration.move option)
  done;
  Alcotest.(check int) "cooldown after second move" 2 (Migration.migrations mg);
  for _ = 1 to 8 do
    Migration.note_serve mg ~position:200 ~identifier:120 ~peer:100
  done;
  Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200;
  Migration.note_serve mg ~position:300 ~identifier:250 ~peer:300;
  (match
     let result = ref None in
     for _ = 1 to 4 do
       match tick ~scores:(fun () -> [ (120, 7) ]) () with
       | Some mv -> result := Some mv
       | None -> ()
     done;
     !result
   with
  | None -> Alcotest.fail "expected the slice to re-split"
  | Some mv ->
    Alcotest.(check int) "re-split source is the holder" 100 mv.Migration.source;
    Alcotest.(check int) "re-split target" 200 mv.Migration.target;
    Alcotest.(check int) "re-split lo" 100 mv.Migration.lo;
    Alcotest.(check int) "re-split hi" 125 mv.Migration.hi);
  Alcotest.(check int) "third migration" 3 (Migration.migrations mg);
  Alcotest.(check (option int)) "hot quarter is native again" None
    (Migration.holder mg ~position:200 ~identifier:120);
  Alcotest.(check (option int)) "cold quarter stays with the holder"
    (Some 100)
    (Migration.holder mg ~position:200 ~identifier:130);
  Alcotest.(check int) "two live slices" 2 (Migration.slice_count mg)

(* Configs mirroring the balance tests: one identifier per range and
   spread placement, so load concentrates on genuinely hot buckets. *)
let base_config =
  { Config.default with
    Config.matching = Config.Containment_match;
    spread_identifiers = true;
    l = 1;
  }

let migrate_spec =
  { Config.check_every = 64;
    overload = 1.3;
    cooldown = 1;
    min_share = 8;
    window = 2048;
  }

let migrate_config =
  { base_config with Config.balancing = Config.Migrate migrate_spec }

let zipf_shape =
  Workload.Query_workload.Zipf_hotspots { hotspots = 4; spread = 8; s = 1.0 }

let run_stream sys ~n ~stream_seed =
  let rng = Prng.Splitmix.create stream_seed in
  let stream =
    Workload.Query_workload.create zipf_shape
      ~domain:Config.default.Config.domain ~seed:stream_seed
  in
  let live = Array.of_list (List.filter (Sys_.alive sys) (Sys_.peers sys)) in
  List.init n (fun _ ->
      let from = live.(Prng.Splitmix.int rng (Array.length live)) in
      Sys_.query sys ~from (Workload.Query_workload.next stream))

let matched_range = Query_result.matched_range

(* Fault-free, migration must be invisible in results: buckets move
   wholesale and lookups follow them, so every query answers exactly as
   without balancing (only message counts may differ, by the redirect
   forwards). *)
let migration_transparent_fault_free () =
  let off = Sys_.create ~config:base_config ~seed:42L ~n_peers:24 () in
  let on = Sys_.create ~config:migrate_config ~seed:42L ~n_peers:24 () in
  let ra = run_stream off ~n:1_200 ~stream_seed:5L in
  let rb = run_stream on ~n:1_200 ~stream_seed:5L in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same match" true
        (Option.equal Range.equal (matched_range a) (matched_range b));
      Alcotest.(check (float 0.0)) "same recall" a.Query_result.recall
        b.Query_result.recall)
    ra rb;
  (* Non-vacuous: slices really moved. *)
  Alcotest.(check bool) "migrations happened" true (Sys_.migrations on > 0);
  Alcotest.(check bool) "slices live" true (Sys_.migrated_slices on > 0);
  Alcotest.(check int) "off system migrated nothing" 0 (Sys_.migrations off)

(* Same seed, same config: everything replays bit-identically, messages
   included. *)
let migration_determinism () =
  let a = Sys_.create ~config:migrate_config ~seed:77L ~n_peers:24 () in
  let b = Sys_.create ~config:migrate_config ~seed:77L ~n_peers:24 () in
  let ra = run_stream a ~n:800 ~stream_seed:9L in
  let rb = run_stream b ~n:800 ~stream_seed:9L in
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "same match" true
        (Option.equal Range.equal (matched_range x) (matched_range y));
      Alcotest.(check (float 0.0)) "same recall" x.Query_result.recall
        y.Query_result.recall;
      Alcotest.(check int) "same messages"
        x.Query_result.stats.Query_result.messages
        y.Query_result.stats.Query_result.messages)
    ra rb;
  Alcotest.(check int) "same migration count" (Sys_.migrations a)
    (Sys_.migrations b);
  Alcotest.(check int) "same slice count" (Sys_.migrated_slices a)
    (Sys_.migrated_slices b);
  Alcotest.(check bool) "non-vacuous" true (Sys_.migrations a > 0)

(* A Migrate policy that can never trigger must be message-for-message
   identical to No_balancing — the wiring itself perturbs nothing (the
   bit-identity-when-unset contract, exercised from the stronger side;
   the committed bench baseline pins the unset case across builds). *)
let wiring_inert_until_triggered () =
  let never =
    { base_config with
      Config.balancing =
        Config.Migrate { migrate_spec with Config.min_share = max_int };
    }
  in
  let off = Sys_.create ~config:base_config ~seed:13L ~n_peers:24 () in
  let on = Sys_.create ~config:never ~seed:13L ~n_peers:24 () in
  let ra = run_stream off ~n:600 ~stream_seed:3L in
  let rb = run_stream on ~n:600 ~stream_seed:3L in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same match" true
        (Option.equal Range.equal (matched_range a) (matched_range b));
      Alcotest.(check int) "same messages"
        a.Query_result.stats.Query_result.messages
        b.Query_result.stats.Query_result.messages)
    ra rb;
  Alcotest.(check int) "nothing migrated" 0 (Sys_.migrations on)

(* The ISSUE's fault-interplay requirement: a slice whose holder crashes
   must fall back cleanly — queries degrade into empty answers rather
   than raising, and the data comes back when the holder recovers. *)
let holder_crash_falls_back () =
  let config =
    { base_config with
      Config.balancing =
        Config.Migrate
          { Config.check_every = 16;
            overload = 1.5;
            cooldown = 1;
            min_share = 8;
            window = 2048;
          };
    }
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:8 () in
  let range = mk 30 50 in
  let identifier = List.hd (Sys_.identifiers s range) in
  let owner = Sys_.owner_of_identifier s identifier in
  let from =
    List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
  in
  let _ = Sys_.publish s ~from range in
  (* Hammer the one range: all load lands on its owner, which must shed
     the slice holding it on the first planner round. *)
  for _ = 1 to 20 do
    let r = Sys_.query s ~from range in
    Alcotest.(check bool) "served throughout" true
      (r.Query_result.matched <> None)
  done;
  Alcotest.(check bool) "the hot owner migrated its slice" true
    (Sys_.migrations s >= 1);
  (* The holder of the migrated slice is the first-created peer that is
     not the source — the planner's deterministic target choice. *)
  let target =
    List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
  in
  let r = Sys_.query s ~from range in
  Alcotest.(check bool) "redirect still answers exactly" true
    (r.Query_result.recall = 1.0);
  Sys_.fail_peer s target;
  (* Holder down: the lookup falls back to the native owner, whose bucket
     moved away — an empty answer, never an exception. *)
  let r = Sys_.query s ~from range in
  Alcotest.(check bool) "fallback answers empty" true
    (r.Query_result.matched = None);
  Sys_.recover_peer s target;
  let r = Sys_.query s ~from range in
  Alcotest.(check bool) "data returns with the holder" true
    (r.Query_result.matched <> None);
  Alcotest.(check (float 1e-9)) "exact again" 1.0 r.Query_result.recall

(* A fallback is recorded where a write lands on the native owner because
   the slice holder is down: one publish to the slice counts exactly one,
   hints on or off, while the read-only audit and repair (here keeping,
   then replaying, a hint parked for the slice's identifier) count none
   and emit no fallback trace event. *)
let fallback_counted_once_per_landing () =
  let fallbacks = Obs.Metrics.counter "balance.migration_fallbacks" in
  let fallback_events () =
    List.fold_left
      (fun acc span ->
        acc
        + List.length
            (List.filter
               (fun (name, _, _) -> name = "balance.migration_fallback")
               (Obs.Trace.span_events span)))
      0 (Obs.Trace.spans ())
  in
  let delta f =
    let before = Obs.Metrics.counter_value fallbacks in
    Obs.Trace.with_span "probe" f;
    Obs.Metrics.counter_value fallbacks - before
  in
  let metrics = Obs.Metrics.enabled () and trace = Obs.Trace.enabled () in
  Obs.Metrics.enable ();
  List.iter
    (fun hinted_handoff ->
      let mode = if hinted_handoff then "hints on" else "hints off" in
      let config =
        { base_config with
          Config.hinted_handoff;
          balancing =
            Config.Migrate
              { Config.check_every = 16;
                overload = 1.5;
                cooldown = 1;
                min_share = 8;
                window = 2048;
              };
        }
      in
      let s = Sys_.create ~config ~seed:7L ~n_peers:8 () in
      let range = mk 30 50 in
      let owner =
        Sys_.owner_of_identifier s (List.hd (Sys_.identifiers s range))
      in
      let from =
        List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
      in
      let _ = Sys_.publish s ~from range in
      for _ = 1 to 20 do
        ignore (Sys_.query s ~from range : Query_result.t)
      done;
      Alcotest.(check bool) (mode ^ ": slice migrated") true
        (Sys_.migrations s >= 1);
      (* The planner's target: the first-created peer that is not the
         source, which is [from]. *)
      Sys_.fail_peer s from;
      Obs.Trace.reset ();
      Obs.Trace.enable ();
      Alcotest.(check int) (mode ^ ": one publish, one fallback") 1
        (delta (fun () -> ignore (Sys_.publish s ~from range)));
      Alcotest.(check int) (mode ^ ": one fallback event") 1 (fallback_events ());
      if hinted_handoff then begin
        Sys_.fail_peer s owner;
        ignore (Sys_.publish s ~from range);
        Alcotest.(check int) "hint parked" 1 (Sys_.parked_hints s);
        Obs.Trace.reset ();
        (* Recovery runs repair. The hint's home is the slice holder, so it
           waits while the holder is down and replays once it is back. *)
        Alcotest.(check int) "hint kept records none" 0
          (delta (fun () -> Sys_.recover_peer s owner));
        Alcotest.(check int) "hint waits for its holder" 1 (Sys_.parked_hints s);
        Alcotest.(check int) "hint replay records none" 0
          (delta (fun () -> Sys_.recover_peer s from));
        Alcotest.(check int) "hint replayed" 0 (Sys_.parked_hints s)
      end
      else Obs.Trace.reset ();
      Alcotest.(check int) (mode ^ ": audit records none") 0
        (delta (fun () -> ignore (Sys_.check_invariants s : string list)));
      Alcotest.(check int) (mode ^ ": repair records none") 0
        (delta (fun () -> Sys_.repair s));
      Alcotest.(check int) (mode ^ ": no fallback event") 0
        (fallback_events ());
      Obs.Trace.reset ();
      if not trace then Obs.Trace.disable ())
    [ false; true ];
  if not metrics then Obs.Metrics.disable ()

(* Regression for the migration/repair hole: with hints on, a write that
   lands on the native owner while the slice holder is down must reach
   the holder once it recovers, even when another peer's recovery runs
   [repair] in between. Without the fix the write either never became a
   hint, or that repair replayed it onto the owner itself and dropped it,
   leaving a bucket the audit reports unreachable. *)
let fallback_write_reaches_recovered_holder () =
  let fallbacks = Obs.Metrics.counter "balance.migration_fallbacks" in
  let metrics = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let config =
    { base_config with
      Config.hinted_handoff = true;
      balancing =
        Config.Migrate
          { Config.check_every = 16;
            overload = 1.5;
            cooldown = 1;
            min_share = 8;
            window = 2048;
          };
    }
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:8 () in
  let hot = mk 30 50 in
  let owner = Sys_.owner_of_identifier s (List.hd (Sys_.identifiers s hot)) in
  (* The planner's target: the first-created peer that is not the
     source. *)
  let holder =
    List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
  in
  let _ = Sys_.publish s ~from:holder hot in
  for _ = 1 to 20 do
    ignore (Sys_.query s ~from:holder hot : Query_result.t)
  done;
  Alcotest.(check bool) "slice migrated" true (Sys_.migrations s >= 1);
  Sys_.fail_peer s holder;
  let others =
    List.filter
      (fun p -> not (List.mem (Peer.name p) [ Peer.name owner; Peer.name holder ]))
      (Sys_.peers s)
  in
  let from = List.hd others and bystander = List.nth others 1 in
  (* Publish fresh ranges until one lands in the slice, which the
     fallback counter shows. *)
  let rec fallback_write lo =
    if lo > 950 then Alcotest.fail "no fresh range falls in the slice"
    else
      let range = mk lo (lo + 10) in
      let before = Obs.Metrics.counter_value fallbacks in
      ignore (Sys_.publish s ~from range);
      if Obs.Metrics.counter_value fallbacks - before = 1 then range
      else fallback_write (lo + 7)
  in
  let range = fallback_write 100 in
  Sys_.fail_peer s bystander;
  Sys_.recover_peer s bystander;
  Sys_.recover_peer s holder;
  Alcotest.(check (list string)) "audit is clean" [] (Sys_.check_invariants s);
  let r = Sys_.query s ~from range in
  Alcotest.(check bool) "the write is served again" true
    (r.Query_result.matched <> None);
  if not metrics then Obs.Metrics.disable ()

(* Replicate_and_migrate composes: fault-free it stays transparent, both
   mechanisms actually run, and after the hottest peers fail its recall
   floor is no worse than the unbalanced system's. *)
let composition_recall_floor () =
  let both_config =
    { base_config with
      Config.balancing =
        Config.Replicate_and_migrate
          {
            replicate =
              { Config.r = 2; hot = Tracker.Absolute 8; window = 1024 };
            migrate = migrate_spec;
          };
    }
  in
  let n_peers = 48 and n_queries = 2_000 in
  let off = Sys_.create ~config:base_config ~seed:42L ~n_peers () in
  let both = Sys_.create ~config:both_config ~seed:42L ~n_peers () in
  let ra = run_stream off ~n:n_queries ~stream_seed:42L in
  let rb = run_stream both ~n:n_queries ~stream_seed:42L in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "fault-free composition is transparent" true
        (Option.equal Range.equal (matched_range a) (matched_range b)))
    ra rb;
  Alcotest.(check bool) "replication ran" true (Sys_.replicated_buckets both > 0);
  Alcotest.(check bool) "migration ran" true (Sys_.migrations both > 0);
  (* Fail the top-10% most-loaded peers of the OFF run in both systems. *)
  let victims =
    Sys_.peers off
    |> List.map (fun p ->
           (Tracker.peer_load (Sys_.tracker off) (Peer.id p), Peer.name p))
    |> List.sort (fun (la, na) (lb, nb) ->
           if la <> lb then Int.compare lb la else String.compare na nb)
    |> List.filteri (fun i _ -> i < n_peers / 10)
    |> List.map snd
  in
  List.iter
    (fun sys ->
      List.iter
        (fun name -> Sys_.fail_peer sys (Sys_.peer_by_name sys name))
        victims)
    [ off; both ];
  let mean rs =
    List.fold_left (fun acc r -> acc +. r.Query_result.recall) 0.0 rs
    /. float_of_int (List.length rs)
  in
  let rec_off = mean (run_stream off ~n:500 ~stream_seed:1337L) in
  let rec_both = mean (run_stream both ~n:500 ~stream_seed:1337L) in
  Alcotest.(check bool)
    (Printf.sprintf "composition recall floor (%.3f vs %.3f)" rec_both rec_off)
    true
    (rec_both >= rec_off)

let suite =
  [
    Alcotest.test_case "spec validation" `Quick spec_validation;
    Alcotest.test_case "planner mechanics" `Quick planner_unit;
    Alcotest.test_case "migration is invisible fault-free" `Quick
      migration_transparent_fault_free;
    Alcotest.test_case "determinism at a fixed seed" `Quick migration_determinism;
    Alcotest.test_case "wiring is inert until triggered" `Quick
      wiring_inert_until_triggered;
    Alcotest.test_case "holder crash falls back cleanly" `Quick
      holder_crash_falls_back;
    Alcotest.test_case "one fallback per landing, none from audits" `Quick
      fallback_counted_once_per_landing;
    Alcotest.test_case "a fallback write reaches its recovered holder" `Quick
      fallback_write_reaches_recovered_holder;
    Alcotest.test_case "replicate-and-migrate recall floor" `Quick
      composition_recall_floor;
  ]
