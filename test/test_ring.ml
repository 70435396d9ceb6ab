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
    QCheck_alcotest.to_alcotest prop_owner_is_first_at_or_after;
  ]
