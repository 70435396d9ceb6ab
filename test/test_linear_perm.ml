(* Linear permutations over prime fields: primality helper, bijectivity,
   overflow-exact multiplication, and validation. *)

let next_prime_cases () =
  List.iter
    (fun (n, p) -> Alcotest.(check int) (Printf.sprintf "next_prime %d" n) p
        (Lsh.Linear_perm.next_prime n))
    [ (2, 2); (3, 3); (4, 5); (1001, 1009); (1500, 1511); (4096, 4099) ]

let default_p_is_prime_like () =
  (* Spot-check: no small factor divides the default modulus. *)
  let p = Lsh.Linear_perm.default_p in
  Alcotest.(check int) "documented value" 4294967291 p;
  let composite = ref false in
  let d = ref 2 in
  while !d * !d <= p do
    if p mod !d = 0 then composite := true;
    incr d
  done;
  Alcotest.(check bool) "default_p is prime" false !composite

let bijective_small_field () =
  let rng = Prng.Splitmix.create 1L in
  for _ = 1 to 10 do
    let perm = Lsh.Linear_perm.random ~p:1009 rng in
    let image = Array.make 1009 false in
    for x = 0 to 1008 do
      let y = Lsh.Linear_perm.apply perm x in
      Alcotest.(check bool) "in field" true (0 <= y && y < 1009);
      Alcotest.(check bool) "no collision" false image.(y);
      image.(y) <- true
    done
  done

let mulmod_exactness () =
  (* Against values where naive 63-bit multiplication would overflow:
     (a*x + b) mod p computed with arbitrary precision in the test. *)
  let p = Lsh.Linear_perm.default_p in
  let cases =
    [ (p - 1, p - 1); (p - 1, 1); (2147483647, 4000000000); (3037000499, 3037000498) ]
  in
  List.iter
    (fun (a, x) ->
      let perm = Lsh.Linear_perm.make ~p ~a ~b:0 in
      (* Reference via Int64 splitting with a different decomposition
         (32-bit limbs and Int64 arithmetic). *)
      let expected =
        let a64 = Int64.of_int a and x64 = Int64.of_int x and p64 = Int64.of_int p in
        (* a*x mod p via repeated doubling to stay within Int64. *)
        let rec mulmod acc a x =
          if Int64.equal x 0L then acc
          else begin
            let acc =
              if Int64.logand x 1L = 1L then Int64.rem (Int64.add acc a) p64
              else acc
            in
            mulmod acc (Int64.rem (Int64.add a a) p64) (Int64.shift_right_logical x 1)
          end
        in
        Int64.to_int (mulmod 0L (Int64.rem a64 p64) x64)
      in
      Alcotest.(check int)
        (Printf.sprintf "a=%d x=%d" a x)
        expected
        (Lsh.Linear_perm.apply perm x))
    cases

let validation () =
  Alcotest.check_raises "a = 0 rejected"
    (Invalid_argument "Linear_perm.make: need a > 0, b >= 0") (fun () ->
      ignore (Lsh.Linear_perm.make ~p:101 ~a:0 ~b:5));
  Alcotest.check_raises "a multiple of p rejected"
    (Invalid_argument "Linear_perm.make: a is 0 modulo p") (fun () ->
      ignore (Lsh.Linear_perm.make ~p:101 ~a:202 ~b:5));
  let perm = Lsh.Linear_perm.make ~p:101 ~a:3 ~b:7 in
  Alcotest.check_raises "out-of-field value rejected"
    (Invalid_argument "Linear_perm.apply: value outside [0, p)") (fun () ->
      ignore (Lsh.Linear_perm.apply perm 101))

let known_values () =
  let perm = Lsh.Linear_perm.make ~p:101 ~a:3 ~b:7 in
  Alcotest.(check int) "3*10+7 mod 101" 37 (Lsh.Linear_perm.apply perm 10);
  Alcotest.(check int) "wraps" ((3 * 50) + 7 - 101) (Lsh.Linear_perm.apply perm 50)

let suite =
  [
    Alcotest.test_case "next_prime" `Quick next_prime_cases;
    Alcotest.test_case "default modulus is the largest 32-bit prime" `Quick
      default_p_is_prime_like;
    Alcotest.test_case "bijective over GF(1009)" `Quick bijective_small_field;
    Alcotest.test_case "mulmod exact near overflow" `Quick mulmod_exactness;
    Alcotest.test_case "validation" `Quick validation;
    Alcotest.test_case "known values" `Quick known_values;
  ]
