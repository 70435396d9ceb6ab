type t = { mutable state : int64 }

let create seed = { state = seed }

let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The SplitMix64 output function: two xor-shift-multiply rounds over the
   incremented state. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int63 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 1)

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Rejection sampling over the largest multiple of [bound] below 2^62,
     guaranteeing exact uniformity. *)
  let max = (1 lsl 62) - 1 in
  let limit = max - (max mod bound) in
  let rec draw () =
    let v = next_int63 t land max in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Splitmix.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled into [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits *. 0x1p-53

let bool t = Int64.logand (next_int64 t) 1L = 1L

let split t =
  let seed = next_int64 t in
  create (Int64.logxor seed 0x5851F42D4C957F2DL)

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_distinct t n ~lo ~hi =
  if hi < lo then invalid_arg "Splitmix.sample_distinct: hi < lo";
  let size = hi - lo + 1 in
  if n > size then invalid_arg "Splitmix.sample_distinct: range too small";
  if n < 0 then invalid_arg "Splitmix.sample_distinct: negative count";
  (* Floyd's algorithm: n iterations, O(n) extra space. *)
  let module ISet = Set.Make (Int) in
  let chosen = ref ISet.empty in
  for j = size - n to size - 1 do
    let candidate = lo + int t (j + 1) in
    if ISet.mem candidate !chosen then chosen := ISet.add (lo + j) !chosen
    else chosen := ISet.add candidate !chosen
  done;
  ISet.elements !chosen
