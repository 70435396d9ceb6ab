(* The batched query pipeline: batch-of-one bit-identity, signature-cache
   memoization, identifier dedupe, route/contact sharing, and composition
   with the fault plane and hot-bucket replication. *)

module Range = Rangeset.Range
module Config = P2prange.Config
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result

let mk lo hi = Range.make ~lo ~hi

let fresh_system ?(config = Config.default) ?(seed = 7L) ?(n_peers = 20) () =
  Sys_.create ~config ~seed ~n_peers ()

(* A small seeded workload with enough repeats to exercise every sharing
   layer: duplicate ranges (signature + identifier memo) and distinct
   ranges with shared owners (contact coalescing). *)
let workload =
  [
    mk 100 200; mk 400 450; mk 100 200; mk 0 50; mk 400 450;
    mk 700 900; mk 100 200; mk 320 360; mk 0 50; mk 550 600;
  ]

let seed_publishes sys =
  let from = Sys_.peer_by_name sys "peer-0" in
  List.iter
    (fun r -> ignore (Sys_.publish sys ~from r : Query_result.lookup_stats))
    [ mk 100 200; mk 380 470; mk 0 60; mk 650 950 ]

(* A batch of one must take the single-query path verbatim: same result
   record, same stored state afterwards. *)
let batch_of_one_bit_identical () =
  let a = fresh_system () and b = fresh_system () in
  seed_publishes a;
  seed_publishes b;
  List.iter
    (fun r ->
      let single = Sys_.query a ~from:(Sys_.peer_by_name a "peer-5") r in
      match Sys_.query_batch b ~from:(Sys_.peer_by_name b "peer-5") [ r ] with
      | [ batched ] ->
        Alcotest.(check bool)
          (Printf.sprintf "[%d,%d] bit-identical" (Range.lo r) (Range.hi r))
          true (single = batched)
      | results ->
        Alcotest.failf "batch of one returned %d results"
          (List.length results))
    workload;
  Alcotest.(check int) "same stored state" (Sys_.total_entries a)
    (Sys_.total_entries b)

let batch_empty () =
  let s = fresh_system () in
  Alcotest.(check int) "empty batch" 0
    (List.length (Sys_.query_batch s ~from:(Sys_.peer_by_name s "peer-0") []))

(* Fault-free batching shares lookup traffic but never changes answers:
   per-query matches, scores, recall and cache decisions are equal to the
   sequential run on an identically-seeded system; only messages drop. *)
let batch_matches_unbatched_fault_free () =
  let a = fresh_system () and b = fresh_system () in
  seed_publishes a;
  seed_publishes b;
  let singles =
    List.map (fun r -> Sys_.query a ~from:(Sys_.peer_by_name a "peer-5") r)
      workload
  in
  let batched =
    Sys_.query_batch b ~from:(Sys_.peer_by_name b "peer-5") workload
  in
  Alcotest.(check int) "one result per query" (List.length workload)
    (List.length batched);
  List.iteri
    (fun i (s, b) ->
      let tag fmt = Printf.sprintf "query %d: %s" i fmt in
      Alcotest.(check bool) (tag "same match") true
        (s.Query_result.matched = b.Query_result.matched);
      Alcotest.(check (float 0.0)) (tag "same similarity")
        s.Query_result.similarity b.Query_result.similarity;
      Alcotest.(check (float 0.0)) (tag "same recall") s.Query_result.recall
        b.Query_result.recall;
      Alcotest.(check bool) (tag "same cache decision") s.Query_result.cached
        b.Query_result.cached;
      Alcotest.(check (list int)) (tag "same identifiers")
        s.Query_result.stats.Query_result.identifiers
        b.Query_result.stats.Query_result.identifiers;
      Alcotest.(check int) (tag "all owners answered")
        s.Query_result.responders b.Query_result.responders)
    (List.combine singles batched);
  let total r = List.fold_left (fun acc q -> acc + Query_result.messages q) 0 r in
  Alcotest.(check bool) "batch spends strictly fewer messages" true
    (total batched < total singles);
  Alcotest.(check int) "same stored state" (Sys_.total_entries a)
    (Sys_.total_entries b)

(* A duplicated range inside a batch replays the first occurrence's routes
   from the identifier memo and reuses its owner contacts, so the repeat
   is charged nothing. *)
let duplicate_queries_cost_nothing () =
  let s = fresh_system () in
  seed_publishes s;
  let from = Sys_.peer_by_name s "peer-5" in
  match Sys_.query_batch s ~from [ mk 100 200; mk 320 360; mk 100 200 ] with
  | [ first; _; repeat ] ->
    Alcotest.(check bool) "first occurrence pays" true
      (Query_result.messages first > 0);
    Alcotest.(check int) "repeat is free" 0 (Query_result.messages repeat);
    Alcotest.(check bool) "repeat still answered" true
      (repeat.Query_result.matched = first.Query_result.matched)
  | _ -> Alcotest.fail "expected three results"

(* Direct LRU semantics of the signature memo. *)
let sig_cache_lru () =
  let module C = Lsh.Sig_cache in
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Sig_cache.create: capacity must be >= 1") (fun () ->
      ignore (C.create ~capacity:0));
  let c = C.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (C.capacity c);
  Alcotest.(check (option (list int))) "miss on empty" None
    (C.find c ~lo:0 ~hi:10);
  C.add c ~lo:0 ~hi:10 [ 1; 2 ];
  C.add c ~lo:20 ~hi:30 [ 3; 4 ];
  Alcotest.(check int) "two entries" 2 (C.length c);
  (* Touch (0,10) so (20,30) becomes the LRU victim. *)
  Alcotest.(check (option (list int))) "hit promotes" (Some [ 1; 2 ])
    (C.find c ~lo:0 ~hi:10);
  C.add c ~lo:40 ~hi:50 [ 5 ];
  Alcotest.(check int) "still at capacity" 2 (C.length c);
  Alcotest.(check (option (list int))) "LRU entry evicted" None
    (C.find c ~lo:20 ~hi:30);
  Alcotest.(check (option (list int))) "promoted entry survives"
    (Some [ 1; 2 ])
    (C.find c ~lo:0 ~hi:10);
  Alcotest.(check int) "hits" 2 (C.hits c);
  Alcotest.(check int) "misses" 2 (C.misses c);
  Alcotest.(check int) "evictions" 1 (C.evictions c);
  let computed = ref 0 in
  let ids = C.find_or_compute c ~lo:60 ~hi:70 (fun () -> incr computed; [ 9 ]) in
  Alcotest.(check (list int)) "computed on miss" [ 9 ] ids;
  let ids = C.find_or_compute c ~lo:60 ~hi:70 (fun () -> incr computed; [ 9 ]) in
  Alcotest.(check (list int)) "replayed on hit" [ 9 ] ids;
  Alcotest.(check int) "computed exactly once" 1 !computed

(* The system-level memo: repeated ranges replay their signatures, results
   are unchanged with the cache off, and capacity 0 disables it. *)
let system_signature_cache () =
  let s = fresh_system () in
  (match Sys_.signature_cache s with
  | None -> Alcotest.fail "default config must carry a signature cache"
  | Some c ->
    let before = Lsh.Sig_cache.hits c in
    let ids = Sys_.identifiers s (mk 100 200) in
    Alcotest.(check (list int)) "replayed identifiers" ids
      (Sys_.identifiers s (mk 100 200));
    Alcotest.(check bool) "repeat hit the memo" true
      (Lsh.Sig_cache.hits c > before));
  let off =
    fresh_system ~config:(Config.default |> Config.with_signature_cache 0) ()
  in
  Alcotest.(check bool) "capacity 0 disables the memo" true
    (Sys_.signature_cache off = None);
  Alcotest.(check (list int)) "identifiers independent of the memo"
    (Sys_.identifiers (fresh_system ()) (mk 100 200))
    (Sys_.identifiers off (mk 100 200))

(* Route cache: a cached lookup reaches the same owner and never routes
   longer than the plain walk; once warm it takes shortcut first hops. *)
let route_cache_never_longer () =
  let ring =
    Chord.Ring.create
      ~ids:
        (List.init 48 (fun i ->
             Chord.Id.of_name (Printf.sprintf "cache-node-%d" i)))
  in
  let nodes = Chord.Ring.node_ids ring in
  let from = nodes.(0) in
  let cache = Chord.Ring.Route_cache.create () in
  let rng = Prng.Splitmix.create 99L in
  for i = 1 to 200 do
    let key = Prng.Splitmix.int rng Chord.Id.modulus in
    let owner, plain_hops = Chord.Ring.lookup ring ~from ~key in
    let owner', via_hops = Chord.Ring.lookup_via ring cache ~from ~key in
    Alcotest.(check int) (Printf.sprintf "lookup %d: same owner" i) owner
      owner';
    Alcotest.(check bool)
      (Printf.sprintf "lookup %d: never longer (%d <= %d)" i via_hops
         plain_hops)
      true
      (via_hops <= plain_hops)
  done;
  Alcotest.(check bool) "warm cache takes shortcuts" true
    (Chord.Ring.Route_cache.shortcuts cache > 0);
  Alcotest.(check bool) "cache learned addresses" true
    (Chord.Ring.Route_cache.known cache > List.length [ from ])

(* Batching composes with the fault plane and hot-bucket replication: the
   pipeline degrades gracefully and, at this seeded fault mix, batched
   recall never falls below the sequential run on an identically-seeded
   system. *)
let batch_faults_replication_compose () =
  let config =
    Config.default
    |> Config.with_balancing
         (Config.Replicate
            { r = 2; hot = Balance.Tracker.Absolute 3; window = 64 })
    |> Config.with_faults
         {
           Config.spec =
             { Faults.Plane.no_faults with Faults.Plane.drop = 0.15 };
           retry = Faults.Retry.default;
         }
  in
  let a = fresh_system ~config ~seed:21L ()
  and b = fresh_system ~config ~seed:21L () in
  seed_publishes a;
  seed_publishes b;
  let singles =
    List.map (fun r -> Sys_.query a ~from:(Sys_.peer_by_name a "peer-5") r)
      workload
  in
  let batched =
    Sys_.query_batch b ~from:(Sys_.peer_by_name b "peer-5") workload
  in
  List.iteri
    (fun i (s, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d: batched recall no worse" i)
        true
        (b.Query_result.recall >= s.Query_result.recall);
      Alcotest.(check bool)
        (Printf.sprintf "query %d: responders within bound" i)
        true
        (b.Query_result.responders
        <= List.length b.Query_result.stats.Query_result.identifiers))
    (List.combine singles batched);
  let total r = List.fold_left (fun acc q -> acc + Query_result.messages q) 0 r in
  Alcotest.(check bool) "batch spends fewer messages under faults too" true
    (total batched < total singles)

(* The generated form of the fault-free equivalence above. Over random
   valid configs (matching, padding, spread, (k, l), cache-on-inexact,
   every balancing policy, both substrates, hints), peer counts and
   publish prefixes, each query of a batch answers exactly as it does run
   singly on an identically seeded twin, and both systems end in the same
   state. Batches draw from a pool of at most six ranges, so repeats hit
   the signature and identifier memos. Messages are not compared: a batch
   charges 2 per distinct contact, so a batch that shares nothing can cost
   more than its singles. *)
type batch_case = {
  config : Config.t;
  seed : int64;
  n_peers : int;
  publishes : (int * Range.t) list;  (** (peer index, range) *)
  batches : (int * Range.t list) list;
}

let show_range r = Printf.sprintf "[%d,%d]" (Range.lo r) (Range.hi r)

let show_config (c : Config.t) =
  let padding =
    match c.Config.padding with
    | Config.No_padding -> "none"
    | Config.Fixed_padding f -> Printf.sprintf "fixed %g" f
    | Config.Adaptive_padding { initial; step; target_recall } ->
      Printf.sprintf "adaptive %g/%g/%g" initial step target_recall
  in
  let replicate { Config.r; hot = Balance.Tracker.Absolute hot; window } =
    Printf.sprintf "replicate r=%d hot=%d window=%d" r hot window
  in
  let migrate m =
    Printf.sprintf "migrate every=%d overload=%g cooldown=%d min_share=%d window=%d"
      m.Config.check_every m.Config.overload m.Config.cooldown
      m.Config.min_share m.Config.window
  in
  let balancing =
    match c.Config.balancing with
    | Config.No_balancing -> "none"
    | Config.Replicate r -> replicate r
    | Config.Migrate m -> migrate m
    | Config.Replicate_and_migrate { replicate = r; migrate = m } ->
      replicate r ^ " + " ^ migrate m
  in
  Printf.sprintf
    "matching=%s padding=%s spread=%b k=%d l=%d cache_on_inexact=%b \
     balancing=%s substrate=%s hints=%b"
    (match c.Config.matching with
    | Config.Jaccard_match -> "jaccard"
    | Config.Containment_match -> "containment")
    padding c.Config.spread_identifiers c.Config.k c.Config.l
    c.Config.cache_on_inexact balancing
    (match c.Config.substrate with
    | Config.Chord -> "chord"
    | Config.Learned { max_error; retrain_after } ->
      Printf.sprintf "learned %d/%d" max_error retrain_after)
    c.Config.hinted_handoff

let show_case c =
  let show_ranges rs = String.concat " " (List.map show_range rs) in
  Printf.sprintf "%s\nseed=%Ld peers=%d\npublish: %s\nbatches: %s"
    (show_config c.config) c.seed c.n_peers
    (String.concat " "
       (List.map
          (fun (p, r) -> Printf.sprintf "p%d:%s" p (show_range r))
          c.publishes))
    (String.concat " | "
       (List.map
          (fun (p, rs) -> Printf.sprintf "p%d: %s" p (show_ranges rs))
          c.batches))

let batch_case_gen =
  let open QCheck.Gen in
  let range =
    let* a = int_range 0 1000 in
    let* b = int_range 0 1000 in
    return (mk (min a b) (max a b))
  in
  let padding =
    oneof
      [
        return Config.No_padding;
        map (fun f -> Config.Fixed_padding f) (float_bound_inclusive 0.5);
        (let* initial = float_bound_inclusive 0.3 in
         let* step = float_range 0.01 0.1 in
         let* target_recall = float_bound_inclusive 1.0 in
         return (Config.Adaptive_padding { initial; step; target_recall }));
      ]
  in
  let replicate =
    let* r = int_range 1 3 in
    let* hot = int_range 1 4 in
    let* window = int_range 1 64 in
    return { Config.r; hot = Balance.Tracker.Absolute hot; window }
  in
  let migrate =
    let* check_every = int_range 1 16 in
    let* overload = float_range 1.1 3.0 in
    let* cooldown = int_range 0 3 in
    let* min_share = int_range 1 8 in
    let* window = int_range 1 64 in
    return { Config.check_every; overload; cooldown; min_share; window }
  in
  let balancing =
    oneof
      [
        return Config.No_balancing;
        map (fun r -> Config.Replicate r) replicate;
        map (fun m -> Config.Migrate m) migrate;
        map2
          (fun replicate migrate ->
            Config.Replicate_and_migrate { replicate; migrate })
          replicate migrate;
      ]
  in
  let substrate =
    oneof
      [
        return Config.Chord;
        (let* max_error = int_range 0 8 in
         let* retrain_after = int_range 1 8 in
         return (Config.Learned { Config.max_error; retrain_after }));
      ]
  in
  let* matching = oneofl [ Config.Jaccard_match; Config.Containment_match ] in
  let* padding = padding in
  let* spread = bool in
  let* k = int_range 1 20 in
  let* l = int_range 1 5 in
  let* cache_on_inexact = bool in
  let* balancing = balancing in
  let* substrate = substrate in
  let* hints = bool in
  let config =
    Config.default |> Config.with_matching matching
    |> Config.with_padding padding
    |> Config.with_spread_identifiers spread
    |> Config.with_kl ~k ~l
    |> Config.with_cache_on_inexact cache_on_inexact
    |> Config.with_balancing balancing
    |> Config.with_substrate substrate
    |> Config.with_hinted_handoff hints
  in
  let* seed = map Int64.of_int (int_bound 1_000_000) in
  let* n_peers = int_range 1 40 in
  let peer = int_bound (n_peers - 1) in
  let* pool = list_size (int_range 1 6) range in
  let* publishes =
    list_size (int_range 0 20) (pair peer (oneof [ oneofl pool; range ]))
  in
  let* batches =
    list_size (int_range 1 3) (pair peer (list_size (int_range 2 16) (oneofl pool)))
  in
  return { config; seed; n_peers; publishes; batches }

let prop_batch_equals_singles =
  QCheck.Test.make ~name:"a batch answers like its queries run singly"
    ~count:200
    (QCheck.make ~print:show_case batch_case_gen)
    (fun c ->
      let make () = Sys_.create ~config:c.config ~seed:c.seed ~n_peers:c.n_peers () in
      let singly = make () and batched = make () in
      let peer s i = Sys_.peer_by_name s (Printf.sprintf "peer-%d" i) in
      List.iter
        (fun s ->
          List.iter
            (fun (p, r) ->
              ignore (Sys_.publish s ~from:(peer s p) r : Query_result.lookup_stats))
            c.publishes)
        [ singly; batched ];
      List.iteri
        (fun bi (p, ranges) ->
          let singles = List.map (Sys_.query singly ~from:(peer singly p)) ranges in
          let results = Sys_.query_batch batched ~from:(peer batched p) ranges in
          if List.length results <> List.length ranges then
            QCheck.Test.fail_reportf "batch %d: %d results for %d ranges" bi
              (List.length results) (List.length ranges);
          List.iteri
            (fun qi ((s : Query_result.t), (b : Query_result.t)) ->
              let differ what =
                QCheck.Test.fail_reportf "batch %d, query %d %s: %s differs" bi
                  qi (show_range s.Query_result.query) what
              in
              if s.Query_result.matched <> b.Query_result.matched then
                differ "matched";
              if not (Float.equal s.Query_result.similarity b.Query_result.similarity)
              then differ "similarity";
              if not (Float.equal s.Query_result.recall b.Query_result.recall) then
                differ "recall";
              if s.Query_result.cached <> b.Query_result.cached then differ "cached";
              if not (Range.equal s.Query_result.effective b.Query_result.effective)
              then differ "effective";
              if
                s.Query_result.stats.Query_result.identifiers
                <> b.Query_result.stats.Query_result.identifiers
              then differ "identifiers";
              if s.Query_result.responders <> b.Query_result.responders then
                differ "responders")
            (List.combine singles results))
        c.batches;
      let agree what f =
        if f singly <> f batched then
          QCheck.Test.fail_reportf "final %s differs" what
      in
      agree "total_entries" Sys_.total_entries;
      agree "migrations" Sys_.migrations;
      agree "replicated_buckets" Sys_.replicated_buckets;
      if not (Float.equal (Sys_.load_imbalance singly) (Sys_.load_imbalance batched))
      then QCheck.Test.fail_reportf "final load_imbalance differs";
      agree "parked_hints" Sys_.parked_hints;
      true)

let suite =
  [
    Alcotest.test_case "batch of one is bit-identical" `Quick
      batch_of_one_bit_identical;
    Alcotest.test_case "empty batch" `Quick batch_empty;
    Alcotest.test_case "fault-free batching never changes answers" `Quick
      batch_matches_unbatched_fault_free;
    Alcotest.test_case "duplicate queries in a batch are free" `Quick
      duplicate_queries_cost_nothing;
    Alcotest.test_case "signature cache evicts LRU and counts" `Quick
      sig_cache_lru;
    Alcotest.test_case "system signature memo" `Quick system_signature_cache;
    Alcotest.test_case "cached ring lookups never route longer" `Quick
      route_cache_never_longer;
    Alcotest.test_case "batching composes with faults and replication" `Quick
      batch_faults_replication_compose;
    QCheck_alcotest.to_alcotest prop_batch_equals_singles;
  ]
