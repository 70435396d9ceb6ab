(* The dynamic Chord protocol: joins converge under stabilization, routing
   works mid-churn, failures are repaired through successor lists. *)

let build_network ids =
  let net = Chord.Network.create () in
  (match ids with
  | [] -> ()
  | first :: rest ->
    Chord.Network.add_first net first;
    List.iter
      (fun id ->
        Chord.Network.join net id ~via:first;
        Chord.Network.stabilize net ~rounds:2)
      rest);
  net

let single_bootstrap () =
  let net = Chord.Network.create () in
  Chord.Network.add_first net 42;
  Alcotest.(check int) "size" 1 (Chord.Network.size net);
  Alcotest.(check bool) "converged" true (Chord.Network.is_converged net);
  Alcotest.(check int) "own successor" 42 (Chord.Network.successor net 42)

let joins_converge () =
  let net = build_network [ 100; 5000; 20_000; 1_000_000; 50 ] in
  Chord.Network.stabilize net ~rounds:5;
  Alcotest.(check int) "all joined" 5 (Chord.Network.size net);
  Alcotest.(check bool) "converged after stabilization" true
    (Chord.Network.is_converged net);
  Alcotest.(check (list int)) "membership sorted"
    [ 50; 100; 5000; 20_000; 1_000_000 ]
    (Chord.Network.node_ids net)

let routing_matches_ideal_ring () =
  let ids = List.init 40 (fun i -> (i * 7919 * 104729) land ((1 lsl 32) - 1)) in
  let net = build_network ids in
  Chord.Network.stabilize net ~rounds:8;
  let ring = Chord.Network.to_ring net in
  let rng = Prng.Splitmix.create 5L in
  let nodes = Array.of_list (Chord.Network.node_ids net) in
  for _ = 1 to 500 do
    let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
    let key = Prng.Splitmix.int rng (1 lsl 32) in
    match Chord.Network.find_successor net ~from ~key with
    | Some (owner, _) ->
      Alcotest.(check int) "agrees with ideal owner" (Chord.Ring.owner ring key)
        owner
    | None -> Alcotest.fail "routing dead-ended in a converged network"
  done

let graceful_under_failures () =
  let ids = List.init 30 (fun i -> ((i * 48271) + 17) land ((1 lsl 32) - 1)) in
  let net = build_network ids in
  Chord.Network.stabilize net ~rounds:8;
  (* Kill 5 nodes abruptly. *)
  let victims = [ List.nth ids 3; List.nth ids 7; List.nth ids 11; List.nth ids 19; List.nth ids 23 ] in
  List.iter (Chord.Network.fail net) victims;
  Alcotest.(check int) "size reflects failures" 25 (Chord.Network.size net);
  Chord.Network.stabilize net ~rounds:10;
  Alcotest.(check bool) "re-converged" true (Chord.Network.is_converged net);
  (* All keys must now be owned by live nodes and reachable. *)
  let ring = Chord.Network.to_ring net in
  let rng = Prng.Splitmix.create 6L in
  let nodes = Array.of_list (Chord.Network.node_ids net) in
  for _ = 1 to 200 do
    let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
    let key = Prng.Splitmix.int rng (1 lsl 32) in
    match Chord.Network.find_successor net ~from ~key with
    | Some (owner, _) ->
      Alcotest.(check int) "owner is live and correct"
        (Chord.Ring.owner ring key) owner;
      Alcotest.(check bool) "owner alive" true (Chord.Network.alive net owner)
    | None -> Alcotest.fail "routing dead-ended after repair"
  done

let join_validation () =
  let net = Chord.Network.create () in
  Chord.Network.add_first net 10;
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Network.join: identifier already taken") (fun () ->
      Chord.Network.join net 10 ~via:10);
  Alcotest.check_raises "unknown via"
    (Invalid_argument "Network: unknown or dead node") (fun () ->
      Chord.Network.join net 11 ~via:999);
  Alcotest.check_raises "second bootstrap"
    (Invalid_argument "Network.add_first: network already has nodes")
    (fun () -> Chord.Network.add_first net 12)

let predecessor_tracking () =
  let net = build_network [ 100; 200; 300 ] in
  Chord.Network.stabilize net ~rounds:5;
  Alcotest.(check (option int)) "pred of 200" (Some 100)
    (Chord.Network.predecessor net 200);
  Alcotest.(check (option int)) "pred wraps" (Some 300)
    (Chord.Network.predecessor net 100)

let hop_counts_bounded () =
  let ids = List.init 100 (fun i -> ((i * 2654435761) + 1) land ((1 lsl 32) - 1)) in
  let net = build_network ids in
  Chord.Network.stabilize net ~rounds:10;
  let rng = Prng.Splitmix.create 7L in
  let nodes = Array.of_list (Chord.Network.node_ids net) in
  for _ = 1 to 300 do
    let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
    let key = Prng.Splitmix.int rng (1 lsl 32) in
    match Chord.Network.find_successor net ~from ~key with
    | Some (_, hops) ->
      Alcotest.(check bool) "hops bounded by N" true (hops <= 100)
    | None -> Alcotest.fail "dead end"
  done

let routing_and_hops_match_static_ring () =
  (* Regression for [closest_preceding]: the early-exit descending scan must
     pick exactly the finger the old full-table scan picked, so on a
     converged 64-node network both the reached owner and the hop count
     agree with the static ring built from the same membership (whose
     router takes the identical successor-check / closest-finger steps). *)
  let ids = List.init 64 (fun i -> ((i * 668265263) + 374761393) land ((1 lsl 32) - 1)) in
  let net = build_network ids in
  Chord.Network.stabilize net ~rounds:10;
  Alcotest.(check bool) "converged" true (Chord.Network.is_converged net);
  let ring = Chord.Network.to_ring net in
  let rng = Prng.Splitmix.create 64L in
  let nodes = Array.of_list (Chord.Network.node_ids net) in
  for _ = 1 to 400 do
    let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
    let key = Prng.Splitmix.int rng (1 lsl 32) in
    let ring_owner, ring_hops = Chord.Ring.lookup ring ~from ~key in
    match Chord.Network.find_successor net ~from ~key with
    | Some (owner, hops) ->
      Alcotest.(check int) "same owner" ring_owner owner;
      Alcotest.(check int) "same hop count" ring_hops hops
    | None -> Alcotest.fail "routing dead-ended in a converged network"
  done

(* Satellite regression: routing mid-churn — joins and abrupt failures
   interleaved with too few stabilization rounds to re-converge — must
   never raise. A dead-end ([None]) is acceptable; an exception is not. *)
let routing_mid_churn_never_raises () =
  let ids = List.init 48 (fun i -> ((i * 2246822519) + 7) land ((1 lsl 32) - 1)) in
  let net = build_network ids in
  Chord.Network.stabilize net ~rounds:5;
  let rng = Prng.Splitmix.create 99L in
  let routed = ref 0 and dead_ends = ref 0 in
  List.iteri
    (fun round id ->
      (* Alternate failures and under-stabilized joins. *)
      if round mod 3 = 0 && Chord.Network.size net > 8 then
        Chord.Network.fail net id
      else if round mod 3 = 1 then begin
        let fresh = (id lxor 0x5bd1e995) land ((1 lsl 32) - 1) in
        let vias = Chord.Network.node_ids net in
        match vias with
        | via :: _ when not (Chord.Network.alive net fresh) -> (
          try Chord.Network.join net fresh ~via
          with Invalid_argument _ -> () (* bootstrap itself may dead-end *))
        | _ -> ()
      end;
      (* One ragged stabilization pass every few rounds, never enough to
         fully converge before the next membership change. *)
      if round mod 4 = 0 then Chord.Network.stabilize net ~rounds:1;
      let live = Array.of_list (Chord.Network.node_ids net) in
      for _ = 1 to 10 do
        let from = live.(Prng.Splitmix.int rng (Array.length live)) in
        let key = Prng.Splitmix.int rng (1 lsl 32) in
        match Chord.Network.find_successor net ~from ~key with
        | Some (owner, _) ->
          incr routed;
          Alcotest.(check bool) "routed owner is live" true
            (Chord.Network.alive net owner)
        | None -> incr dead_ends
      done)
    ids;
  Alcotest.(check bool) "some lookups routed" true (!routed > 0)

(* Satellite: cascaded failures exceeding [successor_list_length]. With a
   3-deep backup list, killing a node's successor and the next four ring
   nodes leaves it no live backup: routing through it must degrade to a
   dead-end (or a live detour), never loop or raise — and stabilization
   must repair the ring afterwards. *)
let successor_list_exhaustion_degrades_then_recovers () =
  let ids = List.init 24 (fun i -> ((i * 40503) + 11) land ((1 lsl 24) - 1)) in
  let net = Chord.Network.create ~successor_list_length:3 () in
  (match List.sort Int.compare ids with
  | first :: rest ->
    Chord.Network.add_first net first;
    List.iter
      (fun id ->
        Chord.Network.join net id ~via:first;
        Chord.Network.stabilize net ~rounds:2)
      rest
  | [] -> assert false);
  Chord.Network.stabilize net ~rounds:10;
  Alcotest.(check bool) "converged before failures" true
    (Chord.Network.is_converged net);
  let sorted = Array.of_list (Chord.Network.node_ids net) in
  let n = Array.length sorted in
  (* Kill 5 consecutive ring nodes — deeper than the 3-entry backup list
     of their shared predecessor. *)
  let start = 4 in
  for i = start to start + 4 do
    Chord.Network.fail net sorted.(i mod n)
  done;
  let victim_pred = sorted.((start - 1 + n) mod n) in
  let beyond = sorted.((start + 5) mod n) in
  (* The predecessor's whole backup chain is dead: lookups through it for
     keys inside the dead stretch must terminate without raising. *)
  let key = sorted.(start mod n) in
  (match Chord.Network.find_successor net ~from:victim_pred ~key with
  | Some (owner, _) ->
    Alcotest.(check bool) "any answer is a live node" true
      (Chord.Network.alive net owner)
  | None -> () (* dead-end is the documented degradation *));
  Alcotest.(check bool) "successor list never lists dead nodes" true
    (List.for_all
       (Chord.Network.alive net)
       (Chord.Network.successor_list net victim_pred));
  (* Stabilization alone cannot bridge a gap deeper than the backup list —
     the ring is genuinely partitioned at the dead stretch (this is the
     documented Chord trade-off, not a bug). *)
  Chord.Network.stabilize net ~rounds:12;
  Alcotest.(check bool) "partition survives stabilize (gap > list)" false
    (Chord.Network.is_converged net);
  ignore beyond;
  (* Repair: the crashed stretch rejoins, then stabilization re-absorbs
     it. *)
  let start_id = sorted.(start mod n) in
  for i = start to start + 4 do
    Chord.Network.join net sorted.(i mod n) ~via:victim_pred
  done;
  Chord.Network.stabilize net ~rounds:15;
  Alcotest.(check bool) "re-converged after the stretch rejoined" true
    (Chord.Network.is_converged net);
  (match Chord.Network.find_successor net ~from:victim_pred ~key with
  | Some (owner, _) ->
    Alcotest.(check int) "key owned by the recovered node again" start_id owner
  | None -> Alcotest.fail "routing still dead after repair");
  Alcotest.(check int) "backup list capped at its length" 3
    (List.length (Chord.Network.successor_list net victim_pred))

let failed_node_recovers_and_reconverges () =
  let ids = [ 100; 5_000; 20_000; 300_000; 1_000_000 ] in
  let net = build_network ids in
  Chord.Network.stabilize net ~rounds:8;
  Chord.Network.fail net 20_000;
  Chord.Network.stabilize net ~rounds:8;
  Alcotest.(check bool) "converged without the failed node" true
    (Chord.Network.is_converged net);
  Alcotest.check_raises "a live node cannot rejoin"
    (Invalid_argument "Network.join: identifier already taken") (fun () ->
      Chord.Network.join net 100 ~via:5_000);
  Chord.Network.join net 20_000 ~via:100;
  Alcotest.(check bool) "back among the living" true
    (Chord.Network.alive net 20_000);
  Chord.Network.stabilize net ~rounds:10;
  Alcotest.(check bool) "re-converged with the recovered node" true
    (Chord.Network.is_converged net);
  Alcotest.(check int) "resumed ring position" 20_000
    (Chord.Network.successor net 5_000)

(* Regression for the successor-list fallback accounting: stabilization
   keeps [n.successor] duplicated at the head of the backup list, so the
   fallback path used to contact the same candidate twice when its first
   retried contact failed — charging a second full retry budget (and a
   second round of physical messages) for one reported hop. Candidates are
   now tried at most once; this pins routed/hop/fallback totals for a
   seeded fault mix that exercises the path both without and with retries,
   which shift if double contacts ever come back. *)
let fallback_hop_accounting_under_faults () =
  let m_fallbacks = Obs.Metrics.counter "chord.net.fallback_hops" in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let run ~retry ~drop ~plane_seed =
    let ids =
      List.init 32 (fun i -> ((i + 1) * 7919 * 104729) land ((1 lsl 32) - 1))
    in
    let net = build_network ids in
    Chord.Network.stabilize net ~rounds:8;
    Alcotest.(check bool) "converged before faults" true
      (Chord.Network.is_converged net);
    let spec = { Faults.Plane.no_faults with Faults.Plane.drop } in
    let plane = Faults.Plane.create ~spec ~seed:plane_seed () in
    (* Crash a few nodes (alive but silent) so fingers toward them force
       the successor-list fallback on most routes. *)
    let nodes = Array.of_list (Chord.Network.node_ids net) in
    Faults.Plane.crash plane nodes.(3);
    Faults.Plane.crash plane nodes.(11);
    Faults.Plane.crash plane nodes.(23);
    Chord.Network.set_faults net ~retry plane;
    let rng = Prng.Splitmix.create 11L in
    let before = Obs.Metrics.counter_value m_fallbacks in
    let routed = ref 0 and hops = ref 0 in
    for _ = 1 to 300 do
      let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
      let key = Prng.Splitmix.int rng Chord.Id.modulus in
      if Chord.Network.responsive net from then
        match Chord.Network.find_successor net ~from ~key with
        | Some (_, h) ->
          incr routed;
          hops := !hops + h
        | None -> ()
    done;
    (!routed, !hops, Obs.Metrics.counter_value m_fallbacks - before)
  in
  let routed, hops, fallbacks =
    run ~retry:Faults.Retry.none ~drop:0.3 ~plane_seed:404L
  in
  Alcotest.(check int) "routed without retries" 162 routed;
  Alcotest.(check int) "hops without retries" 618 hops;
  Alcotest.(check int) "fallback hops without retries" 211 fallbacks;
  let routed, hops, fallbacks =
    run ~retry:Faults.Retry.default ~drop:0.6 ~plane_seed:405L
  in
  Alcotest.(check int) "routed with retries" 238 routed;
  Alcotest.(check int) "hops with retries" 832 hops;
  Alcotest.(check int) "fallback hops with retries" 73 fallbacks;
  if not was_enabled then Obs.Metrics.disable ()

let suite =
  [
    Alcotest.test_case "bootstrap node" `Quick single_bootstrap;
    Alcotest.test_case "joins converge" `Quick joins_converge;
    Alcotest.test_case "routing agrees with the ideal ring" `Quick
      routing_matches_ideal_ring;
    Alcotest.test_case "abrupt failures repaired by stabilization" `Quick
      graceful_under_failures;
    Alcotest.test_case "join validation" `Quick join_validation;
    Alcotest.test_case "predecessor tracking" `Quick predecessor_tracking;
    Alcotest.test_case "hop counts bounded" `Quick hop_counts_bounded;
    Alcotest.test_case "converged 64-node routing matches the static ring"
      `Quick routing_and_hops_match_static_ring;
    Alcotest.test_case "routing mid-churn never raises" `Quick
      routing_mid_churn_never_raises;
    Alcotest.test_case "successor-list exhaustion degrades then recovers"
      `Quick successor_list_exhaustion_degrades_then_recovers;
    Alcotest.test_case "failed node recovers and re-converges" `Quick
      failed_node_recovers_and_reconverges;
    Alcotest.test_case "fallback hop accounting pinned under faults" `Quick
      fallback_hop_accounting_under_faults;
  ]
