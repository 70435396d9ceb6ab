(* lib/balance and its integration into System: windowed hot-bucket
   detection, successor replica placement, and the two headline
   properties of the replication extension — it reduces the
   max/mean load-imbalance ratio under a Zipf workload, and it preserves
   recall when the hottest peers fail. *)

module Range = Rangeset.Range
module Tracker = Balance.Tracker
module Replicas = Balance.Replicas
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result
module Config = P2prange.Config
module Peer = P2prange.Peer

let mk lo hi = Range.make ~lo ~hi

(* --- Tracker ------------------------------------------------------- *)

let tracker_counts () =
  let t = Tracker.create (Tracker.Absolute 3) in
  Tracker.record_query t ~peer:1 ~identifier:10;
  Tracker.record_query t ~peer:1 ~identifier:10;
  Tracker.record_query t ~peer:2 ~identifier:11;
  Alcotest.(check int) "total queries" 3 (Tracker.total_queries t);
  Alcotest.(check int) "peer 1 load" 2 (Tracker.peer_load t 1);
  Alcotest.(check int) "peer 2 load" 1 (Tracker.peer_load t 2);
  Alcotest.(check int) "unknown peer load" 0 (Tracker.peer_load t 99);
  Alcotest.(check int) "hot score" 2 (Tracker.hot_score t 10);
  Alcotest.(check bool) "below threshold" false (Tracker.is_hot t 10)

let tracker_window_rotation () =
  (* window = 4: scores span the current plus the last full window, so
     hotness decays two rotations after the lookups stop. *)
  let t = Tracker.create ~window:4 (Tracker.Absolute 3) in
  for _ = 1 to 3 do
    Tracker.record_query t ~peer:0 ~identifier:1
  done;
  Alcotest.(check bool) "hot while hammered" true (Tracker.is_hot t 1);
  (* 4th lookup fills the window; id 1's count moves to [previous]. *)
  Tracker.record_query t ~peer:0 ~identifier:2;
  Alcotest.(check int) "score survives one rotation" 3 (Tracker.hot_score t 1);
  Alcotest.(check bool) "still hot from previous window" true
    (Tracker.is_hot t 1);
  for _ = 1 to 4 do
    Tracker.record_query t ~peer:0 ~identifier:9
  done;
  Alcotest.(check int) "score gone after two rotations" 0 (Tracker.hot_score t 1);
  Alcotest.(check bool) "cooled" false (Tracker.is_hot t 1);
  Alcotest.(check bool) "the new hammered id is hot" true (Tracker.is_hot t 9)

(* The ranking the migration planner reads: score descending across both
   windows, ties toward the smaller identifier. *)
let tracker_windowed_scores () =
  let t = Tracker.create ~window:6 (Tracker.Absolute 100) in
  let hit id n =
    for _ = 1 to n do
      Tracker.record_query t ~peer:0 ~identifier:id
    done
  in
  hit 5 4;
  hit 9 1;
  hit 7 3;
  (* The sixth lookup rotated the window: 5, 9 and 7's first hit sit in
     the previous window, 7's other two in the current one. *)
  Alcotest.(check (list (pair int int))) "descending scores"
    [ (5, 4); (7, 3); (9, 1) ]
    (Tracker.windowed_scores t);
  hit 9 2;
  Alcotest.(check (list (pair int int))) "tie: smaller id first"
    [ (5, 4); (7, 3); (9, 3) ]
    (Tracker.windowed_scores t)

let tracker_imbalance () =
  Alcotest.(check (float 0.0)) "empty" 0.0 (Tracker.imbalance []);
  Alcotest.(check (float 0.0)) "all idle" 0.0 (Tracker.imbalance [ 0; 0; 0 ]);
  (* max 4 over mean 2. *)
  Alcotest.(check (float 1e-9)) "max over mean" 2.0
    (Tracker.imbalance [ 4; 0; 2 ]);
  Alcotest.(check (float 1e-9)) "uniform is 1" 1.0
    (Tracker.imbalance [ 3; 3; 3 ])

let tracker_validation () =
  Alcotest.check_raises "window"
    (Invalid_argument "Tracker.create: window must be >= 1") (fun () ->
      ignore (Tracker.create ~window:0 (Tracker.Absolute 1)));
  Alcotest.check_raises "absolute"
    (Invalid_argument "Tracker.create: absolute threshold must be >= 1")
    (fun () -> ignore (Tracker.create (Tracker.Absolute 0)))

(* --- Replicas ------------------------------------------------------ *)

let five_node_view () =
  Chord.Ring.create ~ids:[ 100; 200; 300; 400; 500 ]

let replicas_on_ring () =
  let view = five_node_view () in
  Alcotest.(check (list int)) "owner then nearest successors"
    [ 200; 300; 400 ]
    (Replicas.replica_set view ~identifier:150 ~r:2 ());
  Alcotest.(check (list int)) "wraps around the ring" [ 500; 100; 200 ]
    (Replicas.replica_set view ~identifier:450 ~r:2 ());
  (* r larger than the ring: everyone except the owner, once. *)
  Alcotest.(check (list int)) "saturates at ring size"
    [ 200; 300; 400; 500; 100 ]
    (Replicas.replica_set view ~identifier:150 ~r:10 ());
  Alcotest.check_raises "r validation"
    (Invalid_argument "Replicas.replica_set: r must be >= 1") (fun () ->
      ignore (Replicas.replica_set view ~identifier:150 ~r:0 ()))

let replicas_alive_filter () =
  let view = five_node_view () in
  Alcotest.(check (list int)) "dead successor skipped" [ 200; 400; 500 ]
    (Replicas.replica_set view
       ~alive:(fun id -> id <> 300)
       ~identifier:150 ~r:2 ());
  (* The owner heads the list even when dead — the caller decides. *)
  Alcotest.(check (list int)) "dead owner still heads" [ 200; 300; 400 ]
    (Replicas.replica_set view
       ~alive:(fun id -> id <> 200)
       ~identifier:150 ~r:2 ());
  (* The walk looks at most (r + 1) * 8 successors past the owner: with
     r = 1, node 16 after the owner is the last one it can pick. *)
  let line = Chord.Ring.create ~ids:(List.init 40 (fun i -> 1000 * (i + 1))) in
  let only k id = id = 1000 * (k + 1) in
  Alcotest.(check (list int)) "16th successor is in reach" [ 1000; 17_000 ]
    (Replicas.replica_set line ~alive:(only 16) ~identifier:1000 ~r:1 ());
  Alcotest.(check (list int)) "17th successor is out of reach" [ 1000 ]
    (Replicas.replica_set line ~alive:(only 17) ~identifier:1000 ~r:1 ())

(* --- System integration -------------------------------------------- *)

let replicate_config =
  { Config.default with
    Config.balancing =
      Config.Replicate { r = 2; hot = Tracker.Absolute 3; window = 64 };
  }

let fail_and_alive () =
  let s = Sys_.create ~seed:7L ~n_peers:8 () in
  let p = Sys_.peer_by_name s "peer-2" in
  Alcotest.(check bool) "alive initially" true (Sys_.alive s p);
  Sys_.fail_peer s p;
  Alcotest.(check bool) "dead after fail" false (Sys_.alive s p);
  Alcotest.(check int) "no replication, no replica sets" 0
    (Sys_.replicated_buckets s);
  let other = Sys_.create_with_peers ~seed:7L [ "alpha"; "beta" ] in
  Alcotest.check_raises "unknown peer"
    (P2prange.Error.Error
       {
         P2prange.Error.code = P2prange.Error.Unknown_peer;
         message = "System.fail_peer: unknown peer";
         context = [ ("peer", "alpha") ];
       })
    (fun () -> Sys_.fail_peer s (Sys_.peer_by_name other "alpha"))

(* With everyone alive, replication must be invisible in results: the two
   systems differ only in the [replication] knob and must answer every
   query identically (the "off by default means bit-identical" contract,
   exercised from the stronger side). *)
let replication_transparent_without_failures () =
  let off = Sys_.create ~seed:11L ~n_peers:24 () in
  let on = Sys_.create ~config:replicate_config ~seed:11L ~n_peers:24 () in
  let rng = Prng.Splitmix.create 5L in
  let stream =
    Workload.Query_workload.create
      (Workload.Query_workload.Zipf_hotspots { hotspots = 4; spread = 8; s = 1.0 })
      ~domain:Config.default.Config.domain ~seed:5L
  in
  for _ = 1 to 400 do
    let name = Printf.sprintf "peer-%d" (Prng.Splitmix.int rng 24) in
    let range = Workload.Query_workload.next stream in
    let a = Sys_.query off ~from:(Sys_.peer_by_name off name) range in
    let b = Sys_.query on ~from:(Sys_.peer_by_name on name) range in
    let matched_range r =
      Option.map
        (fun m -> m.P2prange.Matching.entry.P2prange.Store.range)
        r.Query_result.matched
    in
    Alcotest.(check bool) "same match" true
      (Option.equal Range.equal (matched_range a) (matched_range b));
    Alcotest.(check (float 0.0)) "same recall" a.Query_result.recall b.Query_result.recall;
    Alcotest.(check (float 0.0)) "same similarity" a.Query_result.similarity
      b.Query_result.similarity
  done;
  (* The equality above must not be vacuous: replication really ran. *)
  Alcotest.(check bool) "replica sets were formed" true
    (Sys_.replicated_buckets on > 0)

(* A hot bucket whose owner fails is still served from a replica. *)
let failover_serves_from_replica () =
  let config =
    { Config.default with
      Config.l = 1;
      balancing =
        Config.Replicate { r = 2; hot = Tracker.Absolute 3; window = 64 };
    }
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:16 () in
  let range = mk 30 50 in
  let identifier = List.hd (Sys_.identifiers s range) in
  let owner = Sys_.owner_of_identifier s identifier in
  let other =
    List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
  in
  let _ = Sys_.publish s ~from:other range in
  (* Hammer the range hot; the maintenance pass replicates its bucket. *)
  for _ = 1 to 4 do
    ignore (Sys_.query s ~from:other range)
  done;
  Alcotest.(check bool) "bucket replicated" true (Sys_.replicated_buckets s > 0);
  Sys_.fail_peer s owner;
  let r = Sys_.query s ~from:other range in
  Alcotest.(check bool) "match survives the owner" true (r.Query_result.matched <> None);
  Alcotest.(check (float 1e-9)) "exact recall from the replica" 1.0
    r.Query_result.recall;
  (* Control: without replication the same failure loses the bucket. *)
  let bare = Sys_.create ~config:{ config with Config.balancing = Config.No_balancing }
      ~seed:7L ~n_peers:16 () in
  let _ = Sys_.publish bare ~from:(Sys_.peer_by_name bare (Peer.name other)) range in
  Sys_.fail_peer bare (Sys_.peer_by_name bare (Peer.name owner));
  let r = Sys_.query bare ~from:(Sys_.peer_by_name bare (Peer.name other)) range in
  Alcotest.(check bool) "no replica, no answer" true (r.Query_result.matched = None)

(* The acceptance experiment, scaled down from bench/main.ml: Zipf(1.0)
   over 64 peers, identical seeds for both systems; replication must
   reduce the max/mean load-imbalance ratio, and after the 10% most
   loaded peers fail, recall with replication must be at least as good. *)
let zipf_imbalance_and_failed_recall () =
  let n_peers = 64 and n_queries = 3_000 in
  let shape =
    Workload.Query_workload.Zipf_hotspots { hotspots = 8; spread = 8; s = 1.0 }
  in
  let base =
    { Config.default with
      Config.matching = Config.Containment_match;
      spread_identifiers = true;
      l = 1;
    }
  in
  let on_config =
    { base with
      Config.balancing =
        Config.Replicate { r = 2; hot = Tracker.Absolute 8; window = 1024 };
    }
  in
  let off = Sys_.create ~config:base ~seed:42L ~n_peers () in
  let on = Sys_.create ~config:on_config ~seed:42L ~n_peers () in
  let run sys ~stream_seed ~n =
    let rng = Prng.Splitmix.create stream_seed in
    let stream =
      Workload.Query_workload.create shape ~domain:base.Config.domain
        ~seed:stream_seed
    in
    let live = Array.of_list (List.filter (Sys_.alive sys) (Sys_.peers sys)) in
    let total = ref 0.0 in
    for _ = 1 to n do
      let from = live.(Prng.Splitmix.int rng (Array.length live)) in
      let r = Sys_.query sys ~from (Workload.Query_workload.next stream) in
      total := !total +. r.Query_result.recall
    done;
    !total /. float_of_int n
  in
  let _ = run off ~stream_seed:42L ~n:n_queries in
  let _ = run on ~stream_seed:42L ~n:n_queries in
  let imb_off = Sys_.load_imbalance off and imb_on = Sys_.load_imbalance on in
  Alcotest.(check bool)
    (Printf.sprintf "replication reduces imbalance (%.2f -> %.2f)" imb_off
       imb_on)
    true
    (imb_on < imb_off);
  (* Fail the top-10% most loaded peers of the OFF run in both systems. *)
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
      List.iter (fun name -> Sys_.fail_peer sys (Sys_.peer_by_name sys name)) victims)
    [ off; on ];
  let rec_off = run off ~stream_seed:1337L ~n:(n_queries / 4) in
  let rec_on = run on ~stream_seed:1337L ~n:(n_queries / 4) in
  Alcotest.(check bool)
    (Printf.sprintf "failed recall at least as good (%.3f vs %.3f)" rec_on
       rec_off)
    true
    (rec_on >= rec_off)

(* [System.load_imbalance] reads the tracker's running total and maximum
   in O(1); it must equal the list form over every peer's load bit for
   bit, whatever the balancing policy. *)
let running_imbalance_matches_list () =
  let shape =
    Workload.Query_workload.Zipf_hotspots { hotspots = 8; spread = 8; s = 1.0 }
  in
  let base =
    { Config.default with
      Config.matching = Config.Containment_match;
      spread_identifiers = true;
      l = 1;
    }
  in
  let both =
    Config.Replicate_and_migrate
      {
        replicate = { Config.r = 2; hot = Tracker.Absolute 8; window = 1024 };
        migrate = Config.default_migrate;
      }
  in
  List.iter
    (fun (label, config) ->
      let sys = Sys_.create ~config ~seed:42L ~n_peers:32 () in
      let peers = Array.of_list (Sys_.peers sys) in
      let rng = Prng.Splitmix.create 42L in
      let stream =
        Workload.Query_workload.create shape ~domain:base.Config.domain
          ~seed:42L
      in
      for i = 1 to 1_500 do
        let from = peers.(Prng.Splitmix.int rng (Array.length peers)) in
        let range = Workload.Query_workload.next stream in
        if i mod 5 = 0 then ignore (Sys_.publish sys ~from range)
        else ignore (Sys_.query sys ~from range : Query_result.t)
      done;
      let loads =
        List.map
          (fun p -> Tracker.peer_load (Sys_.tracker sys) (Peer.id p))
          (Sys_.peers sys)
      in
      let running = Sys_.load_imbalance sys in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %h = imbalance of the loads" label running)
        true
        (Float.equal running (Tracker.imbalance loads));
      Alcotest.(check bool) (label ^ ": some load recorded") true
        (running > 0.0))
    [
      ("No_balancing", base);
      ("Replicate_and_migrate", { base with Config.balancing = both });
    ]

let suite =
  [
    Alcotest.test_case "tracker counts" `Quick tracker_counts;
    Alcotest.test_case "tracker window rotation" `Quick tracker_window_rotation;
    Alcotest.test_case "tracker windowed scores rank" `Quick
      tracker_windowed_scores;
    Alcotest.test_case "imbalance ratio" `Quick tracker_imbalance;
    Alcotest.test_case "tracker validation" `Quick tracker_validation;
    Alcotest.test_case "replica placement on a ring" `Quick replicas_on_ring;
    Alcotest.test_case "replica placement skips the dead" `Quick
      replicas_alive_filter;
    Alcotest.test_case "fail and alive" `Quick fail_and_alive;
    Alcotest.test_case "replication is invisible without failures" `Quick
      replication_transparent_without_failures;
    Alcotest.test_case "failover serves from a replica" `Quick
      failover_serves_from_replica;
    Alcotest.test_case "Zipf imbalance and failed recall" `Quick
      zipf_imbalance_and_failed_recall;
    Alcotest.test_case "running imbalance equals the list form" `Quick
      running_imbalance_matches_list;
  ]
