(* (k, l) schemes: identifier structure, determinism, the amplification
   formula, and agreement between group identifiers and raw min-hashes. *)

module Range = Rangeset.Range

let mk lo hi = Range.make ~lo ~hi

let shape () =
  let rng = Prng.Splitmix.create 1L in
  let s = Lsh.Scheme.create Lsh.Family.Approx_minwise ~k:7 ~l:3 rng in
  Alcotest.(check int) "k" 7 (Lsh.Scheme.k s);
  Alcotest.(check int) "l" 3 (Lsh.Scheme.l s);
  let ids = Lsh.Scheme.identifiers_of_range s (mk 10 40) in
  Alcotest.(check int) "l identifiers" 3 (List.length ids);
  List.iter
    (fun id -> Alcotest.(check bool) "32-bit" true (0 <= id && id < 1 lsl 32))
    ids

let default_is_paper_setting () =
  let rng = Prng.Splitmix.create 2L in
  let s = Lsh.Scheme.default Lsh.Family.Exact_minwise rng in
  Alcotest.(check int) "k = 20" 20 (Lsh.Scheme.k s);
  Alcotest.(check int) "l = 5" 5 (Lsh.Scheme.l s)

let deterministic () =
  let s =
    Lsh.Scheme.create Lsh.Family.Exact_minwise ~k:5 ~l:4 (Prng.Splitmix.create 3L)
  in
  let r = mk 100 300 in
  Alcotest.(check (list int)) "same range, same identifiers"
    (Lsh.Scheme.identifiers_of_range s r)
    (Lsh.Scheme.identifiers_of_range s r)

let identifiers_are_xor_of_minhashes () =
  let rng = Prng.Splitmix.create 4L in
  let s = Lsh.Scheme.create Lsh.Family.Approx_minwise ~k:4 ~l:2 rng in
  let r = mk 5 25 in
  let expected =
    Array.to_list
      (Array.map
         (fun group ->
           Array.fold_left
             (fun acc fn -> acc lxor Lsh.Family.minhash_range fn r)
             0 group
           land 0xFFFFFFFF)
         (Lsh.Scheme.functions s))
  in
  Alcotest.(check (list int)) "pseudocode XOR" expected
    (Lsh.Scheme.identifiers_of_range s r)

let amplification_formula () =
  let check name expected got =
    Alcotest.(check (float 1e-9)) name expected got
  in
  check "p=1 collides surely" 1.0 (Lsh.Scheme.amplification ~k:20 ~l:5 1.0);
  check "p=0 never" 0.0 (Lsh.Scheme.amplification ~k:20 ~l:5 0.0);
  check "single function is identity" 0.7
    (Lsh.Scheme.amplification ~k:1 ~l:1 0.7);
  (* 1 - (1 - 0.9^20)^5 *)
  check "paper's setting at p=0.9"
    (1.0 -. ((1.0 -. (0.9 ** 20.0)) ** 5.0))
    (Lsh.Scheme.amplification ~k:20 ~l:5 0.9)

let amplification_step_at_09 () =
  (* The paper chose (20, 5) so the curve approximates a step at 0.9:
     well below 0.9 it is near 0, well above it is near 1. *)
  let f p = Lsh.Scheme.amplification ~k:20 ~l:5 p in
  Alcotest.(check bool) "p=0.5 negligible" true (f 0.5 < 0.001);
  Alcotest.(check bool) "p=0.7 small" true (f 0.7 < 0.01);
  Alcotest.(check bool) "p=0.95 likely" true (f 0.95 > 0.85);
  Alcotest.(check bool) "p=0.99 near-certain" true (f 0.99 > 0.999);
  Alcotest.(check bool) "monotone" true (f 0.85 < f 0.9 && f 0.9 < f 0.95)

let identical_ranges_share_all_identifiers () =
  let rng = Prng.Splitmix.create 6L in
  List.iter
    (fun kind ->
      let s = Lsh.Scheme.create ~universe:1001 kind ~k:20 ~l:5 rng in
      let a = Lsh.Scheme.identifiers_of_range s (mk 30 50) in
      let b = Lsh.Scheme.identifiers_of_range s (mk 30 50) in
      Alcotest.(check (list int)) (Lsh.Family.kind_name kind) a b)
    Lsh.Family.all_kinds

let dissimilar_ranges_rarely_collide () =
  (* Disjoint ranges (J = 0) should share no identifier over many draws.
     Min-hashes of disjoint sets under an injective permutation are always
     distinct, so collisions can only come from accidental XOR equality —
     negligible for the 32-bit families. *)
  let rng = Prng.Splitmix.create 7L in
  let collisions = ref 0 in
  for _ = 1 to 100 do
    let s = Lsh.Scheme.create Lsh.Family.Exact_minwise ~k:20 ~l:5 rng in
    let a = Lsh.Scheme.identifiers_of_range s (mk 0 200) in
    let b = Lsh.Scheme.identifiers_of_range s (mk 500 700) in
    if List.exists (fun id -> List.mem id b) a then incr collisions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/100 runs collided" !collisions)
    true (!collisions = 0)

let small_universe_identifiers_concentrate () =
  (* Flip side: families permuting a SMALL universe (tabulated, linear)
     produce min-hashes of ~log2(universe) bits, so XOR group identifiers
     live in a small space and accidentally collide even for disjoint
     ranges. This is the structural reason the paper's linear family shows
     "looser" matching (§5.1–5.2) — pinned here as a regression test. *)
  let rng = Prng.Splitmix.create 17L in
  let max_id = ref 0 in
  for _ = 1 to 20 do
    let s = Lsh.Scheme.create Lsh.Family.Random_tabulated ~universe:1001 ~k:20 ~l:5 rng in
    List.iter
      (fun id -> if id > !max_id then max_id := id)
      (Lsh.Scheme.identifiers_of_range s (mk 0 500))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "identifiers stay under 2^16 (max seen %d)" !max_id)
    true
    (!max_id < 65536)

let bad_parameters () =
  let rng = Prng.Splitmix.create 8L in
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Scheme.create: k and l must be >= 1") (fun () ->
      ignore (Lsh.Scheme.create Lsh.Family.Linear ~k:0 ~l:5 rng))

let suite =
  [
    Alcotest.test_case "shape: l identifiers of 32 bits" `Quick shape;
    Alcotest.test_case "default is (20, 5)" `Quick default_is_paper_setting;
    Alcotest.test_case "deterministic" `Quick deterministic;
    Alcotest.test_case "identifier = XOR of group min-hashes" `Quick
      identifiers_are_xor_of_minhashes;
    Alcotest.test_case "amplification formula" `Quick amplification_formula;
    Alcotest.test_case "amplification steps near 0.9 for (20,5)" `Quick
      amplification_step_at_09;
    Alcotest.test_case "identical ranges share all identifiers" `Quick
      identical_ranges_share_all_identifiers;
    Alcotest.test_case "disjoint ranges rarely collide" `Slow
      dissimilar_ranges_rarely_collide;
    Alcotest.test_case "small universes concentrate identifiers" `Quick
      small_universe_identifiers_concentrate;
    Alcotest.test_case "parameter validation" `Quick bad_parameters;
  ]
