(* Static Chord rings: ownership, successor/predecessor/finger structure,
   and the routing invariants (lookup reaches the true owner; hop counts
   scale as O(log N)). *)

let mk ids = Chord.Ring.create ~ids

let ownership_small () =
  let ring = mk [ 10; 100; 1000 ] in
  Alcotest.(check int) "key below first node" 10 (Chord.Ring.owner ring 5);
  Alcotest.(check int) "key at node" 100 (Chord.Ring.owner ring 100);
  Alcotest.(check int) "key between" 1000 (Chord.Ring.owner ring 101);
  Alcotest.(check int) "wraps past last node" 10 (Chord.Ring.owner ring 5000)

let successor_predecessor () =
  let ring = mk [ 10; 100; 1000 ] in
  Alcotest.(check int) "succ 10" 100 (Chord.Ring.successor ring 10);
  Alcotest.(check int) "succ wraps" 10 (Chord.Ring.successor ring 1000);
  Alcotest.(check int) "pred 10 wraps" 1000 (Chord.Ring.predecessor ring 10);
  Alcotest.(check int) "pred 1000" 100 (Chord.Ring.predecessor ring 1000)

let single_node_owns_everything () =
  let ring = mk [ 42 ] in
  Alcotest.(check int) "owns low" 42 (Chord.Ring.owner ring 0);
  Alcotest.(check int) "owns high" 42 (Chord.Ring.owner ring ((1 lsl 32) - 1));
  let owner, hops = Chord.Ring.lookup ring ~from:42 ~key:12345 in
  Alcotest.(check int) "self lookup owner" 42 owner;
  Alcotest.(check int) "zero hops" 0 hops

let fingers_are_owners () =
  let rng = Prng.Splitmix.create 1L in
  let ring = Chord.Ring.random rng ~n:64 in
  let nodes = Chord.Ring.node_ids ring in
  Array.iter
    (fun n ->
      for i = 0 to 31 do
        Alcotest.(check int)
          (Printf.sprintf "finger %d of %d" i n)
          (Chord.Ring.owner ring (Chord.Id.add_pow2 n i))
          (Chord.Ring.finger ring n i)
      done)
    nodes

let lookup_reaches_owner () =
  let rng = Prng.Splitmix.create 2L in
  let ring = Chord.Ring.random rng ~n:128 in
  let nodes = Chord.Ring.node_ids ring in
  for _ = 1 to 2000 do
    let from = nodes.(Prng.Splitmix.int rng 128) in
    let key = Prng.Splitmix.int rng (1 lsl 32) in
    let owner, hops = Chord.Ring.lookup ring ~from ~key in
    Alcotest.(check int) "reaches the true owner" (Chord.Ring.owner ring key) owner;
    Alcotest.(check bool) "hop bound" true (hops <= 32)
  done

let lookup_hops_logarithmic () =
  (* Mean hops over random lookups should be close to ½·log2 N and well
     under log2 N. *)
  let rng = Prng.Splitmix.create 3L in
  let ring = Chord.Ring.random rng ~n:1024 in
  let nodes = Chord.Ring.node_ids ring in
  let total = ref 0 and count = 5000 in
  for _ = 1 to count do
    let from = nodes.(Prng.Splitmix.int rng 1024) in
    let key = Prng.Splitmix.int rng (1 lsl 32) in
    let _, hops = Chord.Ring.lookup ring ~from ~key in
    total := !total + hops
  done;
  let mean = float_of_int !total /. float_of_int count in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f in [3, 10] for N=1024" mean)
    true
    (mean >= 3.0 && mean <= 10.0)

let lookup_from_owner_is_free () =
  let ring = mk [ 10; 100; 1000 ] in
  let owner, hops = Chord.Ring.lookup ring ~from:100 ~key:50 in
  Alcotest.(check int) "owner" 100 owner;
  Alcotest.(check int) "0 hops when source owns key" 0 hops

let construction_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Ring.create: no nodes")
    (fun () -> ignore (mk []));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Ring.create: duplicate node identifiers") (fun () ->
      ignore (mk [ 5; 5 ]));
  Alcotest.check_raises "invalid id"
    (Invalid_argument "Ring.create: invalid id") (fun () ->
      ignore (mk [ 1 lsl 32 ]))

let of_names_matches_sha1 () =
  let ring = Chord.Ring.of_names [ "alpha"; "beta"; "gamma" ] in
  Alcotest.(check bool) "alpha present" true
    (Chord.Ring.contains ring (Chord.Id.of_name "alpha"));
  Alcotest.(check int) "size" 3 (Chord.Ring.size ring)

(* [Ring.random] keeps drawing until it holds [n] distinct ids. The
   digests pin the exact ids two seeds produce, so a change to how draws
   are counted or deduplicated cannot pass silently. *)
let random_ids_pinned () =
  List.iter
    (fun (seed, digest) ->
      let ring = Chord.Ring.random (Prng.Splitmix.create seed) ~n:2000 in
      let ids = Chord.Ring.node_ids ring in
      Alcotest.(check int) "size" 2000 (Array.length ids);
      Alcotest.(check string)
        (Printf.sprintf "ids at seed %Ld" seed)
        digest
        (P2p_digest.Sha1.to_hex
           (P2p_digest.Sha1.digest_string
              (String.concat "," (Array.to_list (Array.map string_of_int ids))))))
    [
      (42L, "ce55e63e5398759e24012eb354151be09f6a5056");
      (7919L, "ffe905abb2f070aae140a3fcd491071484222235");
    ]

(* The table router, kept as the oracle for the derived one: explicit
   finger rows read from [Ring.finger], the classic descending
   closest-preceding-finger scan, and a best shortcut found by folding
   over every learned address. *)
module Table_router = struct
  module R = Chord.Ring
  module Id = Chord.Id

  type t = { ring : R.t; rows : (int, int array) Hashtbl.t }

  let create ring =
    let ids = R.node_ids ring in
    let rows = Hashtbl.create (Array.length ids) in
    Array.iter
      (fun n -> Hashtbl.replace rows n (Array.init Id.bits (R.finger ring n)))
      ids;
    { ring; rows }

  (* First hop from [n] toward [key]: the highest finger strictly inside
     (n, key), else the successor. *)
  let step t n key =
    let row = Hashtbl.find t.rows n in
    let rec scan i =
      if i < 0 then R.successor t.ring n
      else if Id.in_interval_oo row.(i) ~lo:n ~hi:key then row.(i)
      else scan (i - 1)
    in
    scan (Id.bits - 1)

  let rec route t learn ~key n hops =
    let succ = R.successor t.ring n in
    if Id.in_interval_oc key ~lo:n ~hi:succ then begin
      learn succ;
      (succ, hops + 1)
    end
    else begin
      let next = step t n key in
      learn next;
      route t learn ~key next (hops + 1)
    end

  let lookup t ~from ~key =
    if R.owner t.ring key = from then (from, 0)
    else route t ignore ~key from 0

  type cache = {
    known : (int, unit) Hashtbl.t;
    mutable shortcuts : int;
    mutable full_walks : int;
  }

  let new_cache () = { known = Hashtbl.create 64; shortcuts = 0; full_walks = 0 }

  let best_shortcut cache ~from ~target =
    Hashtbl.fold
      (fun c () acc ->
        if c <> from && Id.in_interval_oc c ~lo:from ~hi:target then
          match acc with
          | Some b
            when Id.distance_cw ~from ~to_:b >= Id.distance_cw ~from ~to_:c ->
            acc
          | Some _ | None -> Some c
        else acc)
      cache.known None

  let lookup_via t cache ~from ~key =
    let target = R.owner t.ring key in
    let learn c = Hashtbl.replace cache.known c () in
    learn from;
    if target = from then (from, 0)
    else
      let plain = step t from key in
      match best_shortcut cache ~from ~target with
      | Some c when Id.distance_cw ~from ~to_:c > Id.distance_cw ~from ~to_:plain
        ->
        cache.shortcuts <- cache.shortcuts + 1;
        if c = target then (target, 1) else route t learn ~key c 1
      | Some _ | None ->
        cache.full_walks <- cache.full_walks + 1;
        route t learn ~key from 0
end

(* Keys drawn to hit the boundaries a derived finger can get wrong: a
   node's own id, the id just past a node, and uniform keys. *)
let draw_key rng nodes =
  let node = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
  match Prng.Splitmix.int rng 4 with
  | 0 -> node
  | 1 -> (node + 1) land (Chord.Id.modulus - 1)
  | _ -> Prng.Splitmix.int rng Chord.Id.modulus

let check_cache label (ref_cache : Table_router.cache) cache =
  let module C = Chord.Ring.Route_cache in
  Alcotest.(check (list int))
    (label ^ ": known, shortcuts, full walks")
    [ Hashtbl.length ref_cache.known; ref_cache.shortcuts; ref_cache.full_walks ]
    [ C.known cache; C.shortcuts cache; C.full_walks cache ]

let matches_table_router_on ~label ring seed =
  let oracle = Table_router.create ring in
  let nodes = Chord.Ring.node_ids ring in
  let rng = Prng.Splitmix.create seed in
  let pair = Alcotest.(pair int int) in
  let shared = Chord.Ring.Route_cache.create ()
  and ref_shared = Table_router.new_cache () in
  for q = 1 to 1500 do
    let from = nodes.(Prng.Splitmix.int rng (Array.length nodes)) in
    let key = draw_key rng nodes in
    let where = Printf.sprintf "%s lookup %d" label q in
    Alcotest.check pair (where ^ ": plain")
      (Table_router.lookup oracle ~from ~key)
      (Chord.Ring.lookup ring ~from ~key);
    let cache = Chord.Ring.Route_cache.create ()
    and ref_cache = Table_router.new_cache () in
    Alcotest.check pair (where ^ ": fresh cache")
      (Table_router.lookup_via oracle ref_cache ~from ~key)
      (Chord.Ring.lookup_via ring cache ~from ~key);
    check_cache (where ^ ": fresh cache") ref_cache cache;
    Alcotest.check pair (where ^ ": shared cache")
      (Table_router.lookup_via oracle ref_shared ~from ~key)
      (Chord.Ring.lookup_via ring shared ~from ~key);
    check_cache (where ^ ": shared cache") ref_shared shared
  done

(* Plain lookups, lookups through a fresh cache each, and one cache shared
   by a whole stream from varied sources, all against the table router. *)
let matches_table_router () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let ring = Chord.Ring.random (Prng.Splitmix.create seed) ~n in
          matches_table_router_on
            ~label:(Printf.sprintf "n=%d seed=%Ld" n seed)
            ring (Int64.add seed 1L))
        [ 42L; 7919L ])
    [ 1; 2; 3; 7; 64; 1000; 20_000 ];
  (* Adjacent ids, wrapping past 0: distances of 1 and 2 to the last node
     before the key, and fingers that start past the top of the ring. *)
  let dense =
    Chord.Ring.create
      ~ids:
        (List.init 40 (fun k -> Chord.Id.modulus - 40 + k)
        @ List.init 40 Fun.id
        @ [ 1000; 1 lsl 20; 1 lsl 31 ])
  in
  matches_table_router_on ~label:"dense" dense 5L

(* The (owner, hops) sequence of 2 000 plain lookups and 2 000 lookups
   through caches shared by 50-lookup batches with varied sources, on a
   1 000-node ring. The digests were taken from the table router. *)
let routes_pinned () =
  List.iter
    (fun (seed, digest) ->
      let rng = Prng.Splitmix.create seed in
      let ring = Chord.Ring.random rng ~n:1000 in
      let nodes = Chord.Ring.node_ids ring in
      let buf = Buffer.create 40_000 in
      let add (owner, hops) = Printf.bprintf buf "%d:%d;" owner hops in
      let draw () =
        (nodes.(Prng.Splitmix.int rng 1000), Prng.Splitmix.int rng Chord.Id.modulus)
      in
      for _ = 1 to 2000 do
        let from, key = draw () in
        add (Chord.Ring.lookup ring ~from ~key)
      done;
      let cache = ref (Chord.Ring.Route_cache.create ()) in
      for q = 1 to 2000 do
        if q mod 50 = 1 then cache := Chord.Ring.Route_cache.create ();
        let from, key = draw () in
        add (Chord.Ring.lookup_via ring !cache ~from ~key)
      done;
      Alcotest.(check string)
        (Printf.sprintf "routes at seed %Ld" seed)
        digest
        (P2p_digest.Sha1.to_hex (P2p_digest.Sha1.digest_string (Buffer.contents buf))))
    [ (42L, "69013fb0580e5a2cc73e46660d3c1fd719b7db90"); (7919L, "751e44b4f6e53b5d65572d38a0f943bd82b6ffe4") ]

let with_planes_off f =
  let metrics = Obs.Metrics.enabled ()
  and series = Obs.Series.enabled ()
  and trace = Obs.Trace.enabled () in
  Obs.Metrics.disable ();
  Obs.Series.disable ();
  Obs.Trace.disable ();
  Fun.protect f ~finally:(fun () ->
      if metrics then Obs.Metrics.enable ();
      if series then Obs.Series.enable ();
      if trace then Obs.Trace.enable ())

(* A hop allocates nothing, so a lookup allocates the same few words
   however many hops it takes: bigger rings route longer but must not
   allocate more. *)
let lookup_allocation_flat () =
  let words_per_lookup n =
    let rng = Prng.Splitmix.create 11L in
    let ring = Chord.Ring.random rng ~n in
    let nodes = Chord.Ring.node_ids ring in
    let queries =
      Array.init 1000 (fun _ ->
          (nodes.(Prng.Splitmix.int rng n), Prng.Splitmix.int rng Chord.Id.modulus))
    in
    with_planes_off (fun () ->
        let before = Gc.minor_words () in
        Array.iter
          (fun (from, key) ->
            ignore (Sys.opaque_identity (Chord.Ring.lookup ring ~from ~key)))
          queries;
        let after = Gc.minor_words () in
        (after -. before) /. 1000.)
  in
  let small = words_per_lookup 64 and large = words_per_lookup 20_000 in
  Alcotest.(check (float 0.))
    (Printf.sprintf "words per lookup at 64 peers (%.2f) and 20 000 (%.2f)" small
       large)
    small large

let prop_owner_is_first_at_or_after =
  QCheck.Test.make ~name:"owner = first node clockwise at/after the key"
    ~count:500
    (QCheck.make
       ~print:(fun (ids, key) ->
         Printf.sprintf "ids=%s key=%d"
           (String.concat "," (List.map string_of_int ids))
           key)
       QCheck.Gen.(
         let* n = int_range 1 20 in
         let* ids = list_repeat n (int_range 0 10_000) in
         let* key = int_range 0 20_000 in
         return (List.sort_uniq Int.compare ids, key)))
    (fun (ids, key) ->
      QCheck.assume (ids <> []);
      let ring = mk ids in
      let expected =
        match List.filter (fun id -> id >= key) ids with
        | id :: _ -> id
        | [] -> List.hd ids
      in
      Chord.Ring.owner ring key = expected)

let suite =
  [
    Alcotest.test_case "ownership on a small ring" `Quick ownership_small;
    Alcotest.test_case "successor / predecessor" `Quick successor_predecessor;
    Alcotest.test_case "single node owns everything" `Quick
      single_node_owns_everything;
    Alcotest.test_case "fingers point at owners" `Quick fingers_are_owners;
    Alcotest.test_case "lookup always reaches the owner" `Quick
      lookup_reaches_owner;
    Alcotest.test_case "mean hops ≈ ½·log2 N" `Slow lookup_hops_logarithmic;
    Alcotest.test_case "owner-sourced lookup is free" `Quick
      lookup_from_owner_is_free;
    Alcotest.test_case "construction validation" `Quick construction_validation;
    Alcotest.test_case "of_names uses SHA-1 placement" `Quick
      of_names_matches_sha1;
    Alcotest.test_case "random ring ids are pinned per seed" `Quick
      random_ids_pinned;
    Alcotest.test_case "derived fingers route like finger tables" `Quick
      matches_table_router;
    Alcotest.test_case "routes are pinned per seed" `Quick routes_pinned;
    Alcotest.test_case "lookup allocation is flat in ring size" `Quick
      lookup_allocation_flat;
    QCheck_alcotest.to_alcotest prop_owner_is_first_at_or_after;
  ]
