let default_p = 4294967291 (* largest prime below 2^32 *)

let is_prime n =
  if n < 2 then false
  else if n mod 2 = 0 then n = 2
  else begin
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 2)) in
    go 3
  end

let next_prime n =
  if n < 2 then invalid_arg "Linear_perm.next_prime: n < 2";
  let rec go n = if is_prime n then n else go (n + 1) in
  go n

type t = { p : int; a : int; b : int }

let make ~p ~a ~b =
  if p < 2 then invalid_arg "Linear_perm.make: p < 2";
  if a <= 0 || b < 0 then invalid_arg "Linear_perm.make: need a > 0, b >= 0";
  let a = a mod p and b = b mod p in
  if a = 0 then invalid_arg "Linear_perm.make: a is 0 modulo p";
  { p; a; b }

let random ?(p = default_p) rng =
  if p < 2 then invalid_arg "Linear_perm.random: p < 2";
  let a = 1 + Prng.Splitmix.int rng (p - 1) in
  let b = Prng.Splitmix.int rng p in
  { p; a; b }

(* (a * x) mod p without 63-bit overflow for p < 2^32: split x into 16-bit
   limbs, so every intermediate product stays below 2^49. *)
let mulmod p a x =
  let x_hi = x lsr 16 and x_lo = x land 0xFFFF in
  let hi = a * x_hi mod p in
  (((hi lsl 16) mod p) + (a * x_lo mod p)) mod p

let apply t x =
  if x < 0 || x >= t.p then
    invalid_arg "Linear_perm.apply: value outside [0, p)";
  (mulmod t.p t.a x + t.b) mod t.p
