(* Hash families: min-hash semantics and the LSH property itself —
   Pr[h(A) = h(B)] ≈ Jaccard(A, B) — estimated over many function draws. *)

module Range = Rangeset.Range

let mk lo hi = Range.make ~lo ~hi

let minhash_is_min_of_applies () =
  let rng = Prng.Splitmix.create 1L in
  let top = (1 lsl 32) - 1 in
  let bit_only =
    [ mk (top - 40) top; mk 0xFFFF0 0x100011; mk (top - 1) (top - 1) ]
  in
  List.iter
    (fun kind ->
      let fn = Lsh.Family.create ~universe:1001 kind rng in
      let ranges =
        [ mk 30 50; mk 0 0; mk 15 16; mk 7 100; mk 1000 1000 ]
        @
        match kind with
        | Lsh.Family.Exact_minwise | Lsh.Family.Approx_minwise -> bit_only
        | Lsh.Family.Linear | Lsh.Family.Random_tabulated -> []
      in
      List.iter
        (fun r ->
          let expected =
            List.fold_left
              (fun acc v -> Stdlib.min acc (Lsh.Family.apply fn v))
              max_int (Range.to_values r)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s %s" (Lsh.Family.kind_name kind)
               (Range.to_string r))
            expected
            (Lsh.Family.minhash_range fn r))
        ranges)
    (Lsh.Family.all_kinds @ [ Lsh.Family.Random_tabulated ])

let minhash_range_outside_domain () =
  let rng = Prng.Splitmix.create 22L in
  let fn = Lsh.Family.create Lsh.Family.Exact_minwise rng in
  let outside =
    Invalid_argument "Bit_perm.apply: value outside the permuted domain"
  in
  Alcotest.check_raises "hi past 2^32 - 1" outside (fun () ->
      ignore (Lsh.Family.minhash_range fn (mk ((1 lsl 32) - 2) (1 lsl 32))));
  Alcotest.check_raises "negative lo" outside (fun () ->
      ignore (Lsh.Family.minhash_range fn (mk (-3) 10)))

let minhash_range_allocates_nothing () =
  let rng = Prng.Splitmix.create 23L in
  List.iter
    (fun kind ->
      let fn = Lsh.Family.create kind rng in
      let r = mk 1234 98_765 in
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Lsh.Family.minhash_range fn r))
      done;
      let after = Gc.minor_words () in
      (* Slop covers the boxed floats the two Gc.minor_words calls return. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: delta %.0f words" (Lsh.Family.kind_name kind)
           (after -. before))
        true
        (after -. before <= 16.0))
    [ Lsh.Family.Exact_minwise; Lsh.Family.Approx_minwise ]

let kind_of_fn_roundtrip () =
  let rng = Prng.Splitmix.create 4L in
  List.iter
    (fun kind ->
      let fn = Lsh.Family.create ~universe:1001 kind rng in
      Alcotest.(check string) "kind preserved"
        (Lsh.Family.kind_name kind)
        (Lsh.Family.kind_name (Lsh.Family.kind_of_fn fn)))
    (Lsh.Family.all_kinds @ [ Lsh.Family.Random_tabulated ])

let kind_names_roundtrip () =
  List.iter
    (fun kind ->
      match Lsh.Family.kind_of_name (Lsh.Family.kind_name kind) with
      | Some k ->
        Alcotest.(check string) "name roundtrip" (Lsh.Family.kind_name kind)
          (Lsh.Family.kind_name k)
      | None -> Alcotest.fail "kind name did not parse back")
    (Lsh.Family.all_kinds @ [ Lsh.Family.Random_tabulated ]);
  Alcotest.(check bool) "unknown name" true
    (Lsh.Family.kind_of_name "nonsense" = None)

let tabulated_requires_universe () =
  let rng = Prng.Splitmix.create 5L in
  Alcotest.check_raises "universe required"
    (Invalid_argument "Family.create: Random_tabulated requires a universe")
    (fun () -> ignore (Lsh.Family.create Lsh.Family.Random_tabulated rng))

(* Empirical LSH property: over many independent draws, the collision rate
   of min-hashes approximates Jaccard similarity. The tabulated family is
   exactly min-wise independent, so it gets a tight tolerance; the bit
   networks are approximations and get a loose one. *)
let collision_rate kind ~universe a b ~draws ~seed =
  let rng = Prng.Splitmix.create seed in
  let hits = ref 0 in
  for _ = 1 to draws do
    let fn = Lsh.Family.create ~universe kind rng in
    if Lsh.Family.minhash_range fn a = Lsh.Family.minhash_range fn b then
      incr hits
  done;
  float_of_int !hits /. float_of_int draws

let lsh_property_tabulated () =
  let a = mk 0 99 and b = mk 20 119 in
  let expected = Range.jaccard a b in
  let rate =
    collision_rate Lsh.Family.Random_tabulated ~universe:200 a b ~draws:3000
      ~seed:6L
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f ≈ jaccard %.3f" rate expected)
    true
    (abs_float (rate -. expected) < 0.03)

let lsh_property_exact_minwise () =
  (* The bit-shuffle network is only approximately min-wise independent:
     it preserves popcount, so collision rates correlate with Jaccard but
     deviate from it. Pin the correlation with a broad band on a J = 2/3
     pair away from the degenerate zero region. *)
  let a = mk 77 176 and b = mk 97 196 in
  let rate =
    collision_rate Lsh.Family.Exact_minwise ~universe:200 a b ~draws:2000 ~seed:7L
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f in (0.2, 0.95) for J = 2/3" rate)
    true
    (rate > 0.2 && rate < 0.95)

let bit_network_zero_degeneracy () =
  (* Structural property of any bit-position shuffle: π(0) = 0, so a range
     containing 0 always min-hashes to 0 and never collides with an
     overlapping range that excludes 0. Pinned as a regression test — this
     is the price of the paper's Figure 3 construction relative to ideal
     min-wise independence. *)
  let a = mk 0 99 and b = mk 20 119 in
  let rate =
    collision_rate Lsh.Family.Exact_minwise ~universe:200 a b ~draws:500 ~seed:20L
  in
  Alcotest.(check (float 0.0)) "never collides" 0.0 rate;
  let rng = Prng.Splitmix.create 21L in
  for _ = 1 to 20 do
    let fn = Lsh.Family.create Lsh.Family.Exact_minwise rng in
    Alcotest.(check int) "π(0) = 0" 0 (Lsh.Family.apply fn 0)
  done

let lsh_property_monotone () =
  (* More similar pairs must collide more often, for every family. *)
  let q = mk 100 199 in
  let close = mk 105 204 (* J ≈ 0.90 *) and far = mk 150 249 (* J = 1/3 *) in
  List.iter
    (fun kind ->
      let rc = collision_rate kind ~universe:300 q close ~draws:1500 ~seed:8L in
      let rf = collision_rate kind ~universe:300 q far ~draws:1500 ~seed:9L in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f > %.3f" (Lsh.Family.kind_name kind) rc rf)
        true (rc > rf))
    (Lsh.Family.all_kinds @ [ Lsh.Family.Random_tabulated ])

let identical_sets_always_collide () =
  let rng = Prng.Splitmix.create 10L in
  List.iter
    (fun kind ->
      for _ = 1 to 50 do
        let fn = Lsh.Family.create ~universe:1001 kind rng in
        let r = mk 250 750 in
        Alcotest.(check int) "h(Q) = h(Q)" (Lsh.Family.minhash_range fn r)
          (Lsh.Family.minhash_range fn r)
      done)
    (Lsh.Family.all_kinds @ [ Lsh.Family.Random_tabulated ])

let suite =
  [
    Alcotest.test_case "minhash = min over permuted values" `Quick
      minhash_is_min_of_applies;
    Alcotest.test_case "minhash rejects ranges outside the domain" `Quick
      minhash_range_outside_domain;
    Alcotest.test_case "bit-network minhash allocates nothing" `Quick
      minhash_range_allocates_nothing;
    Alcotest.test_case "kind_of_fn round-trips" `Quick kind_of_fn_roundtrip;
    Alcotest.test_case "kind names round-trip" `Quick kind_names_roundtrip;
    Alcotest.test_case "tabulated family requires a universe" `Quick
      tabulated_requires_universe;
    Alcotest.test_case "LSH property: tabulated ≈ Jaccard (tight)" `Slow
      lsh_property_tabulated;
    Alcotest.test_case "LSH property: exact min-wise correlates (loose)" `Slow
      lsh_property_exact_minwise;
    Alcotest.test_case "bit networks fix zero (degeneracy pinned)" `Slow
      bit_network_zero_degeneracy;
    Alcotest.test_case "LSH property: monotone in similarity" `Slow
      lsh_property_monotone;
    Alcotest.test_case "identical sets always collide" `Quick
      identical_sets_always_collide;
  ]
