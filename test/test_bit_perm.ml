(* The Figure-3 bit-shuffle network: the paper's worked 8-bit example,
   bijectivity over small widths, and key validation. *)

let fig3_example () =
  (* Figure 3(a): key 0|1|1|0|1|0|1|0 (MSB first), integer 1|0|1|0|0|0|1|0
     must permute to 0|1|0|1|1|0|0|0 after the first iteration. *)
  let key = 0b01101010 and x = 0b10100010 and expected = 0b01011000 in
  let perm = Lsh.Bit_perm.of_keys ~bits:8 [| key |] in
  Alcotest.(check int) "paper example, first iteration" expected
    (Lsh.Bit_perm.apply perm x)

let bijective_8bit () =
  (* Every full network over 8 bits must be a permutation of [0, 256). *)
  let rng = Prng.Splitmix.create 1L in
  for _ = 1 to 20 do
    let perm = Lsh.Bit_perm.random ~bits:8 rng in
    let image = Array.make 256 false in
    for x = 0 to 255 do
      let y = Lsh.Bit_perm.apply perm x in
      Alcotest.(check bool) "in range" true (0 <= y && y < 256);
      Alcotest.(check bool) "no collision" false image.(y);
      image.(y) <- true
    done
  done

let bijective_one_level () =
  let rng = Prng.Splitmix.create 2L in
  let perm = Lsh.Bit_perm.random ~bits:16 ~levels:1 rng in
  let seen = Hashtbl.create 65536 in
  for x = 0 to 65535 do
    let y = Lsh.Bit_perm.apply perm x in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen y);
    Hashtbl.replace seen y ()
  done

let level_count () =
  let rng = Prng.Splitmix.create 3L in
  let full = Lsh.Bit_perm.random ~bits:32 rng in
  Alcotest.(check int) "32-bit network has 5 levels (widths 32,16,8,4,2)" 5
    (Lsh.Bit_perm.levels full);
  let approx = Lsh.Bit_perm.random ~bits:32 ~levels:1 rng in
  Alcotest.(check int) "approximate variant has 1 level" 1
    (Lsh.Bit_perm.levels approx)

let keys_roundtrip () =
  let rng = Prng.Splitmix.create 4L in
  let perm = Lsh.Bit_perm.random ~bits:32 rng in
  let rebuilt = Lsh.Bit_perm.of_keys ~bits:32 (Lsh.Bit_perm.keys perm) in
  for _ = 1 to 1000 do
    let x = Prng.Splitmix.int rng (1 lsl 32) in
    Alcotest.(check int) "same permutation" (Lsh.Bit_perm.apply perm x)
      (Lsh.Bit_perm.apply rebuilt x)
  done

let key_validation () =
  Alcotest.check_raises "wrong popcount"
    (Invalid_argument "Bit_perm.of_keys: key must have exactly half its bits set")
    (fun () -> ignore (Lsh.Bit_perm.of_keys ~bits:8 [| 0b00000001 |]));
  Alcotest.check_raises "key wider than level"
    (Invalid_argument "Bit_perm.of_keys: key exceeds its level width")
    (fun () -> ignore (Lsh.Bit_perm.of_keys ~bits:8 [| 0b01101010; 0b10101010 |]));
  Alcotest.check_raises "bits not a power of two"
    (Invalid_argument "Bit_perm: bits must be a power of two in [2, 62]")
    (fun () -> ignore (Lsh.Bit_perm.of_keys ~bits:12 [| 0 |]))

let apply_domain_check () =
  let rng = Prng.Splitmix.create 5L in
  let perm = Lsh.Bit_perm.random ~bits:8 rng in
  let outside =
    Invalid_argument "Bit_perm.apply: value outside the permuted domain"
  in
  Alcotest.check_raises "value too wide" outside (fun () ->
      ignore (Lsh.Bit_perm.apply perm 256));
  Alcotest.check_raises "reference: value too wide" outside (fun () ->
      ignore (Lsh.Bit_perm.apply_reference perm 256));
  Alcotest.check_raises "range: hi too wide" outside (fun () ->
      ignore (Lsh.Bit_perm.range_min perm ~lo:200 ~hi:256));
  Alcotest.check_raises "range: lo negative" outside (fun () ->
      ignore (Lsh.Bit_perm.range_min perm ~lo:(-1) ~hi:3));
  let wide = Lsh.Bit_perm.random ~bits:32 rng in
  Alcotest.check_raises "range: hi past 2^32 - 1" outside (fun () ->
      ignore (Lsh.Bit_perm.range_min wide ~lo:((1 lsl 32) - 4) ~hi:(1 lsl 32)));
  Alcotest.check_raises "range: empty"
    (Invalid_argument "Bit_perm.range_min: empty range") (fun () ->
      ignore (Lsh.Bit_perm.range_min perm ~lo:5 ~hi:4))

(* The compiled tables against the level-by-level network, for every width
   and level count: exhaustively up to 16 bits; at 32 bits on every unit
   vector (which fixes the bit permutation) plus random values. *)
let compiled_matches_reference () =
  let rng = Prng.Splitmix.create 11L in
  List.iter
    (fun bits ->
      let full = Lsh.Bit_perm.levels (Lsh.Bit_perm.random ~bits rng) in
      for levels = 1 to full do
        let perm = Lsh.Bit_perm.random ~bits ~levels rng in
        let check x =
          if Lsh.Bit_perm.apply perm x <> Lsh.Bit_perm.apply_reference perm x
          then
            Alcotest.failf "bits %d, levels %d: compiled differs at %d" bits
              levels x
        in
        if bits <= 16 then
          for x = 0 to (1 lsl bits) - 1 do
            check x
          done
        else begin
          for i = 0 to bits - 1 do
            check (1 lsl i)
          done;
          check 0;
          check ((1 lsl bits) - 1);
          for _ = 1 to 10_000 do
            check (Prng.Splitmix.int rng (1 lsl bits))
          done
        end
      done)
    [ 2; 4; 8; 16; 32 ]

let reference_min perm ~lo ~hi =
  let best = ref max_int in
  for x = lo to hi do
    best := Stdlib.min !best (Lsh.Bit_perm.apply_reference perm x)
  done;
  !best

(* Every range of an 8-bit domain, by a running minimum per left end. *)
let range_min_exhaustive_8bit () =
  let rng = Prng.Splitmix.create 12L in
  List.iter
    (fun levels ->
      let perm = Lsh.Bit_perm.random ~bits:8 ~levels rng in
      for lo = 0 to 255 do
        let best = ref max_int in
        for hi = lo to 255 do
          best := Stdlib.min !best (Lsh.Bit_perm.apply_reference perm hi);
          if Lsh.Bit_perm.range_min perm ~lo ~hi <> !best then
            Alcotest.failf "levels %d: range [%d, %d]" levels lo hi
        done
      done)
    [ 1; 2; 3 ]

(* 32-bit ranges against a fold of the reference: random ones, ranges that
   straddle 16-aligned blocks, single values, and both ends of the domain. *)
let range_min_matches_reference_32bit () =
  let rng = Prng.Splitmix.create 13L in
  let top = (1 lsl 32) - 1 in
  List.iter
    (fun levels ->
      let perm = Lsh.Bit_perm.random ~bits:32 ~levels rng in
      let check lo hi =
        Alcotest.(check int)
          (Printf.sprintf "levels %d, [%d, %d]" levels lo hi)
          (reference_min perm ~lo ~hi)
          (Lsh.Bit_perm.range_min perm ~lo ~hi)
      in
      for _ = 1 to 200 do
        let lo = Prng.Splitmix.int rng (top - 2000) in
        check lo (lo + Prng.Splitmix.int rng 2000)
      done;
      for _ = 1 to 50 do
        let base = 16 * Prng.Splitmix.int rng (1 lsl 27) in
        check (base + 15) (base + 16);
        check (base + 9) (base + 40);
        check base base;
        let x = Prng.Splitmix.int rng (top + 1) in
        check x x
      done;
      List.iter
        (fun (lo, hi) -> check lo hi)
        [
          (0, 0); (0, 17); (1, 300); (top, top); (top - 300, top);
          (top - 16, top - 1);
        ])
    [ 1; 5 ]

let identity_distinct_keys () =
  (* Two different random permutations should disagree somewhere (sanity
     that keys actually influence the output). *)
  let rng = Prng.Splitmix.create 6L in
  let a = Lsh.Bit_perm.random ~bits:32 rng in
  let b = Lsh.Bit_perm.random ~bits:32 rng in
  let differs = ref false in
  for x = 0 to 999 do
    if Lsh.Bit_perm.apply a x <> Lsh.Bit_perm.apply b x then differs := true
  done;
  Alcotest.(check bool) "independent draws differ" true !differs

let prop_full_32bit_injective_on_sample =
  QCheck.Test.make ~name:"32-bit network is injective on random samples"
    ~count:5 QCheck.unit (fun () ->
      let rng = Prng.Splitmix.create 7L in
      let perm = Lsh.Bit_perm.random ~bits:32 rng in
      let seen = Hashtbl.create 4096 in
      let ok = ref true in
      for _ = 1 to 4096 do
        let x = Prng.Splitmix.int rng (1 lsl 32) in
        let y = Lsh.Bit_perm.apply perm x in
        (match Hashtbl.find_opt seen y with
        | Some x' when x' <> x -> ok := false
        | Some _ | None -> ());
        Hashtbl.replace seen y x
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "paper's Figure 3(a) example" `Quick fig3_example;
    Alcotest.test_case "full 8-bit network is a bijection" `Quick bijective_8bit;
    Alcotest.test_case "single level is a bijection (16-bit)" `Quick
      bijective_one_level;
    Alcotest.test_case "level counts" `Quick level_count;
    Alcotest.test_case "keys round-trip" `Quick keys_roundtrip;
    Alcotest.test_case "key validation" `Quick key_validation;
    Alcotest.test_case "apply rejects out-of-domain values" `Quick
      apply_domain_check;
    Alcotest.test_case "distinct draws give distinct permutations" `Quick
      identity_distinct_keys;
    Alcotest.test_case "compiled apply equals the level-by-level network"
      `Quick compiled_matches_reference;
    Alcotest.test_case "range_min over every 8-bit range" `Quick
      range_min_exhaustive_8bit;
    Alcotest.test_case "range_min equals a reference fold at 32 bits" `Quick
      range_min_matches_reference_32bit;
    QCheck_alcotest.to_alcotest prop_full_32bit_injective_on_sample;
  ]
