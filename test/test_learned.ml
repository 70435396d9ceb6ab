(* The learned routing substrate: deterministic model fit, bounded fresh
   predictions, churn/staleness/retrain epochs, Chord-fallback correction
   under failures, and the two cross-substrate contracts — identical
   owners (hence identical answers) and [Config.substrate = Chord]
   bit-identity with pre-substrate builds. *)

module Range = Rangeset.Range
module Model = Learned.Model
module Sys_ = P2prange.System
module Config = P2prange.Config
module Routing = P2prange.Routing
module Query_result = P2prange.Query_result

let mk lo hi = Range.make ~lo ~hi

(* Sorted distinct pseudo-random keys, the shape of a real ring. *)
let random_keys seed n =
  let rng = Prng.Splitmix.create seed in
  let module ISet = Set.Make (Int) in
  let rec grow set =
    if ISet.cardinal set >= n then Array.of_list (ISet.elements set)
    else grow (ISet.add (Prng.Splitmix.int rng 0x3FFFFFFF) set)
  in
  grow ISet.empty

let circular_distance n a b =
  let d = abs (a - b) in
  Stdlib.min d (n - d)

let fit_deterministic () =
  let keys = random_keys 11L 500 in
  let a = Model.fit ~keys ~max_error:8 ~retrain_after:4 in
  let b = Model.fit ~keys ~max_error:8 ~retrain_after:4 in
  Alcotest.(check bool)
    "same keys give identical segments" true
    (Model.segments a = Model.segments b);
  Alcotest.(check bool)
    "fit is pure: input array unchanged" true
    (keys = random_keys 11L 500);
  (* Retraining over static membership reproduces the same segments. *)
  for i = 1 to 4 do
    Model.note_churn a ~position:keys.(i * 13)
  done;
  Alcotest.(check int) "one retrain epoch" 1 (Model.epoch a);
  Alcotest.(check bool)
    "retrain reproduces the segments" true
    (Model.segments a = Model.segments b)

let fresh_error_bounded () =
  let keys = random_keys 23L 1000 in
  let max_error = 8 in
  let m = Model.fit ~keys ~max_error ~retrain_after:4 in
  let n = Model.size m in
  let rng = Prng.Splitmix.create 5L in
  let check_key key =
    let owner, predicted, stale = Model.predict m ~key in
    Alcotest.(check bool) "fresh model" false stale;
    if circular_distance n owner predicted > max_error + 2 then
      Alcotest.failf "prediction for %d off by %d (bound %d)" key
        (circular_distance n owner predicted)
        (max_error + 2)
  in
  Array.iter (fun key -> check_key key) keys;
  for _ = 1 to 2000 do
    check_key (Prng.Splitmix.int rng 0x3FFFFFFF)
  done

(* The model's owner rule must be exactly the ring's, or substrates
   would place identifiers on different peers. *)
let owner_matches_ring () =
  let rng = Prng.Splitmix.create 42L in
  let ring = Chord.Ring.random rng ~n:300 in
  let m = Model.fit ~keys:(Chord.Ring.node_ids ring) ~max_error:4 ~retrain_after:4 in
  for _ = 1 to 5000 do
    let key = Prng.Splitmix.int rng 0x7FFFFFFF in
    Alcotest.(check int)
      "owner agrees with Chord.Ring.owner"
      (Chord.Ring.owner ring key)
      (Model.owner_position m ~key)
  done

let retrain_epochs () =
  let keys = random_keys 3L 200 in
  let m = Model.fit ~keys ~max_error:8 ~retrain_after:3 in
  Alcotest.(check int) "epoch starts at 0" 0 (Model.epoch m);
  Model.note_churn m ~position:keys.(10);
  Model.note_churn m ~position:keys.(150);
  Alcotest.(check int) "no retrain before the boundary" 0 (Model.epoch m);
  Alcotest.(check int) "two churn notices pending" 2 (Model.pending_churn m);
  Alcotest.(check bool) "segments went stale" true (Model.stale_segment_count m > 0);
  let _, _, stale = Model.predict m ~key:keys.(10) in
  Alcotest.(check bool) "prediction through churned segment is stale" true stale;
  Model.note_churn m ~position:keys.(60);
  Alcotest.(check int) "third notice retrains" 1 (Model.epoch m);
  Alcotest.(check int) "pending cleared" 0 (Model.pending_churn m);
  Alcotest.(check int) "staleness cleared" 0 (Model.stale_segment_count m);
  let _, _, stale = Model.predict m ~key:keys.(10) in
  Alcotest.(check bool) "fresh again after the epoch" false stale

(* Pointwise substrate equality: wrapping a ring in the Chord substrate
   must not change a single lookup — owner and hop count both — which is
   the per-lookup form of the bit-identity acceptance bar. *)
let chord_substrate_is_the_ring () =
  let rng = Prng.Splitmix.create 42L in
  let ring = Chord.Ring.random rng ~n:256 in
  let routing = Routing.create ~substrate:Config.Chord ring in
  let nodes = Chord.Ring.node_ids ring in
  for _ = 1 to 2000 do
    let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
    let key = Prng.Splitmix.int rng 0x7FFFFFFF in
    Alcotest.(check (pair int int))
      "lookup delegates verbatim"
      (Chord.Ring.lookup ring ~from ~key)
      (Routing.lookup routing ~from ~key)
  done

(* The learned substrate beats Chord on mean hops over a converged ring
   — the headline O(1) vs ½·log₂N claim, at test-sized N. *)
let learned_beats_chord_hops () =
  let rng = Prng.Splitmix.create 42L in
  let ring = Chord.Ring.random rng ~n:512 in
  let chord = Routing.create ~substrate:Config.Chord ring in
  let learned =
    Routing.create ~substrate:(Config.Learned Config.default_learned) ring
  in
  let nodes = Chord.Ring.node_ids ring in
  let total routing =
    let probe = Prng.Splitmix.create 7L in
    let acc = ref 0 in
    for _ = 1 to 2000 do
      let from = nodes.(Prng.Splitmix.int probe (Array.length nodes)) in
      let key = Prng.Splitmix.int probe 0x7FFFFFFF in
      let owner, hops = Routing.lookup routing ~from ~key in
      Alcotest.(check int) "same owner" (Chord.Ring.owner ring key) owner;
      acc := !acc + hops
    done;
    !acc
  in
  let chord_total = total chord and learned_total = total learned in
  if learned_total >= chord_total then
    Alcotest.failf "learned total hops %d not below chord %d" learned_total
      chord_total

let query_all sys ~seed ~n =
  let rng = Prng.Splitmix.create seed in
  let from = Sys_.random_peer sys rng in
  List.init n (fun _ ->
      let lo = Prng.Splitmix.int rng 900 in
      let width = 1 + Prng.Splitmix.int rng 80 in
      Sys_.query sys ~from (mk lo (Stdlib.min 1000 (lo + width))))

let strip (r : Query_result.t) =
  (* Everything except hop/message counts, which are the only fields a
     substrate is allowed to move. *)
  ( r.Query_result.query,
    r.Query_result.effective,
    Option.map (fun m -> m.P2prange.Matching.entry) r.Query_result.matched,
    r.Query_result.recall,
    r.Query_result.cached,
    r.Query_result.responders,
    r.Query_result.degraded )

(* Same seed, same queries, substrate the only difference: answers must
   be identical — owners agree, so who serves what never changes. *)
let answers_substrate_independent () =
  let learned_config =
    Config.default |> Config.with_substrate (Config.Learned Config.default_learned)
  in
  let chord = Sys_.create ~seed:42L ~n_peers:60 () in
  let learned = Sys_.create ~config:learned_config ~seed:42L ~n_peers:60 () in
  let a = query_all chord ~seed:9L ~n:150 in
  let b = query_all learned ~seed:9L ~n:150 in
  Alcotest.(check bool)
    "identical answers across substrates" true
    (List.map strip a = List.map strip b)

(* 10% of peers crash under a learned substrate with a retrain horizon
   too far to reach: every lookup still resolves (stale segments fall
   back to Chord correction), answers still match a Chord twin with the
   same dead set, and the staleness tallies show the fallback actually
   ran. *)
let correction_under_crashes () =
  let learned_config =
    Config.default
    |> Config.with_substrate
         (Config.Learned { Config.max_error = 8; retrain_after = 1_000_000 })
  in
  let chord = Sys_.create ~seed:42L ~n_peers:100 () in
  let learned = Sys_.create ~config:learned_config ~seed:42L ~n_peers:100 () in
  List.iter
    (fun sys ->
      for i = 0 to 9 do
        Sys_.fail_peer sys (Sys_.peer_by_name sys (Printf.sprintf "peer-%d" i))
      done)
    [ chord; learned ];
  let model = Option.get (Routing.learned_model (Sys_.routing learned)) in
  Alcotest.(check int) "churn noticed, no retrain" 10 (Model.pending_churn model);
  Alcotest.(check bool) "segments stale" true (Model.stale_segment_count model > 0);
  (* Only the learned system records [learned.*]: its counter deltas
     across the queries are its tallies. *)
  let lookups = Obs.Metrics.counter "learned.lookups"
  and stale = Obs.Metrics.counter "learned.stale_lookups" in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let lookups0 = Obs.Metrics.counter_value lookups
  and stale0 = Obs.Metrics.counter_value stale in
  let a = query_all chord ~seed:13L ~n:200 in
  let b = query_all learned ~seed:13L ~n:200 in
  let lookups_made = Obs.Metrics.counter_value lookups - lookups0
  and stale_made = Obs.Metrics.counter_value stale - stale0 in
  if not was_enabled then Obs.Metrics.disable ();
  Alcotest.(check bool)
    "identical answers with 10% crashed" true
    (List.map strip a = List.map strip b);
  Alcotest.(check bool) "stale lookups took the fallback" true (stale_made > 0);
  Alcotest.(check bool) "lookups were made" true (lookups_made > 0)

(* A failed peer's buckets fail over to replicas under the learned
   substrate; after [recover_peer] the peer serves lookups itself again —
   proven by killing every replica holder and asking once more — with the
   model counting both churn events. *)
let recovered_peer_serves_under_learned_failback () =
  let config =
    {
      Config.default with
      Config.l = 1;
      balancing =
        Config.Replicate
          { r = 2; hot = Balance.Tracker.Absolute 3; window = 64 };
    }
    |> Config.with_substrate
         (Config.Learned { Config.max_error = 8; retrain_after = 1_000_000 })
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:32 () in
  let range = mk 30 50 in
  let identifier = List.hd (Sys_.identifiers s range) in
  let owner = Sys_.owner_of_identifier s identifier in
  let owner_name = P2prange.Peer.name owner in
  let other =
    List.find (fun p -> P2prange.Peer.name p <> owner_name) (Sys_.peers s)
  in
  let _ = Sys_.publish s ~from:other range in
  (* Hammer the range hot so its bucket replicates, then fail the owner:
     a replica serves in its stead. *)
  for _ = 1 to 4 do
    ignore (Sys_.query s ~from:other range)
  done;
  Alcotest.(check bool) "bucket replicated" true (Sys_.replicated_buckets s > 0);
  let model = Option.get (Routing.learned_model (Sys_.routing s)) in
  let churn0 = Model.pending_churn model in
  Sys_.fail_peer s owner;
  Alcotest.(check int) "failure counted as churn" (churn0 + 1)
    (Model.pending_churn model);
  let r = Sys_.query s ~from:other range in
  Alcotest.(check (float 1e-9)) "failback keeps exact recall" 1.0
    r.Query_result.recall;
  Sys_.recover_peer s owner;
  Alcotest.(check int) "recovery counted as churn too" (churn0 + 2)
    (Model.pending_churn model);
  (* Kill every other copy: only the recovered owner can answer now. *)
  List.iter
    (fun p ->
      if
        P2prange.Peer.name p <> owner_name
        && P2prange.Store.mem (P2prange.Peer.store p) ~identifier ~range
      then Sys_.fail_peer s p)
    (Sys_.peers s);
  let asker =
    List.find
      (fun p -> Sys_.alive s p && P2prange.Peer.name p <> owner_name)
      (Sys_.peers s)
  in
  let r = Sys_.query s ~from:asker range in
  Alcotest.(check (float 1e-9)) "the recovered peer serves it" 1.0
    r.Query_result.recall;
  Alcotest.(check bool) "with a real match" true
    (r.Query_result.matched <> None)

(* Belt and braces for the acceptance bar: the default config and an
   explicit [with_substrate Chord] are the same system, query for query. *)
let default_is_chord () =
  let a = Sys_.create ~seed:11L ~n_peers:30 () in
  let b =
    Sys_.create
      ~config:(Config.default |> Config.with_substrate Config.Chord)
      ~seed:11L ~n_peers:30 ()
  in
  let ra = query_all a ~seed:3L ~n:100 in
  let rb = query_all b ~seed:3L ~n:100 in
  Alcotest.(check bool) "bit-identical results" true (ra = rb)

let suite =
  [
    Alcotest.test_case "model fit is deterministic" `Quick fit_deterministic;
    Alcotest.test_case "fresh predictions within max_error" `Quick
      fresh_error_bounded;
    Alcotest.test_case "owner rule matches the ring" `Quick owner_matches_ring;
    Alcotest.test_case "retrain-on-churn epoch boundaries" `Quick retrain_epochs;
    Alcotest.test_case "Chord substrate delegates verbatim" `Quick
      chord_substrate_is_the_ring;
    Alcotest.test_case "learned beats Chord on mean hops" `Quick
      learned_beats_chord_hops;
    Alcotest.test_case "answers are substrate-independent" `Quick
      answers_substrate_independent;
    Alcotest.test_case "correction fallback under 10% crashes" `Quick
      correction_under_crashes;
    Alcotest.test_case "recovered peer serves again under learned failback"
      `Quick recovered_peer_serves_under_learned_failback;
    Alcotest.test_case "default substrate is Chord, bit-identical" `Quick
      default_is_chord;
  ]
