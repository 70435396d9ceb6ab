type t = {
  bits : int;
  levels : int;
  keys : int array; (* keys.(i) drives level i; width bits lsr i *)
  nibbles : int array;
      (* nibbles.(16 * j + n) is the image of nibble value n at input bits
         4j..4j+3; slices past the width stay zero *)
}

let bits t = t.bits
let levels t = t.levels

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let max_levels bits =
  (* Shuffling stops once blocks are 2 bits wide: widths bits, bits/2, …, 2. *)
  let rec go w acc = if w <= 1 then acc else go (w / 2) (acc + 1) in
  go bits 0

let check_bits bits =
  if bits < 2 || bits > 62 || bits land (bits - 1) <> 0 then
    invalid_arg "Bit_perm: bits must be a power of two in [2, 62]"

let check_domain bits x =
  if x < 0 || x lsr bits <> 0 then
    invalid_arg "Bit_perm.apply: value outside the permuted domain"

(* Rearranges one [width]-bit block: bits at the key's one-positions move in
   order to the upper half, the rest in order to the lower half. *)
let shuffle_block block key width =
  let half = width / 2 in
  let hi = ref 0 and lo = ref 0 and nhi = ref 0 and nlo = ref 0 in
  for pos = 0 to width - 1 do
    let bit = (block lsr pos) land 1 in
    if (key lsr pos) land 1 = 1 then begin
      hi := !hi lor (bit lsl !nhi);
      incr nhi
    end
    else begin
      lo := !lo lor (bit lsl !nlo);
      incr nlo
    end
  done;
  (!hi lsl half) lor !lo

(* The network of Figure 3, level by level and bit by bit. *)
let network ~bits keys x =
  let y = ref x in
  for level = 0 to Array.length keys - 1 do
    let width = bits lsr level in
    let key = keys.(level) in
    let mask = (1 lsl width) - 1 in
    let blocks = bits / width in
    let next = ref 0 in
    for b = 0 to blocks - 1 do
      let shift = b * width in
      let block = (!y lsr shift) land mask in
      next := !next lor (shuffle_block block key width lsl shift)
    done;
    y := !next
  done;
  !y

(* Every level moves bits without looking at their values, so the network is
   one fixed permutation of bit positions and π(x) is the OR of the images of
   x's one-bits. Running the network once per input bit and OR-ing those
   images per nibble gives 8 slices of 16 entries, enough for 32 bits. *)
let compile ~bits keys =
  let image = Array.init bits (fun i -> network ~bits keys (1 lsl i)) in
  Array.init (8 * 16) (fun index ->
      let slice = index / 16 and nibble = index land 15 in
      let y = ref 0 in
      for b = 0 to 3 do
        let i = (4 * slice) + b in
        if i < bits && (nibble lsr b) land 1 = 1 then y := !y lor image.(i)
      done;
      !y)

let make ~bits keys =
  { bits; levels = Array.length keys; keys; nibbles = compile ~bits keys }

let random ?(bits = 32) ?levels rng =
  check_bits bits;
  let full = max_levels bits in
  let levels = match levels with None -> full | Some l -> l in
  if levels < 1 || levels > full then invalid_arg "Bit_perm.random: bad levels";
  let key_of_width width =
    let ones = Prng.Splitmix.sample_distinct rng (width / 2) ~lo:0 ~hi:(width - 1) in
    List.fold_left (fun k pos -> k lor (1 lsl pos)) 0 ones
  in
  make ~bits (Array.init levels (fun i -> key_of_width (bits lsr i)))

let of_keys ~bits keys =
  check_bits bits;
  let levels = Array.length keys in
  if levels < 1 || levels > max_levels bits then
    invalid_arg "Bit_perm.of_keys: wrong number of keys";
  Array.iteri
    (fun i key ->
      let width = bits lsr i in
      if key < 0 || key lsr width <> 0 then
        invalid_arg "Bit_perm.of_keys: key exceeds its level width";
      if popcount key <> width / 2 then
        invalid_arg "Bit_perm.of_keys: key must have exactly half its bits set")
    keys;
  make ~bits (Array.copy keys)

(* [x] is in the domain, so every nibble index is below 16. *)
let permute s x =
  s.(x land 15)
  lor s.(16 + ((x lsr 4) land 15))
  lor s.(32 + ((x lsr 8) land 15))
  lor s.(48 + ((x lsr 12) land 15))
  lor s.(64 + ((x lsr 16) land 15))
  lor s.(80 + ((x lsr 20) land 15))
  lor s.(96 + ((x lsr 24) land 15))
  lor s.(112 + (x lsr 28))

let apply t x =
  check_domain t.bits x;
  permute t.nibbles x

let apply_reference t x =
  check_domain t.bits x;
  network ~bits:t.bits t.keys x

(* Every value of an aligned block [b, b + 2^m) is a bitwise superset of b,
   and a bit permutation maps supersets to supersets, so π(b) is the
   block's minimum. The walk steps from [lo] over the largest aligned block
   starting at [x] until that block reaches [hi]; every value of [x, hi]
   then includes [x]. Each step gives [x] more trailing zeros, so there
   are at most bits + 1 evaluations. *)
let range_min t ~lo ~hi =
  check_domain t.bits lo;
  check_domain t.bits hi;
  if hi < lo then invalid_arg "Bit_perm.range_min: empty range";
  let best = ref max_int and x = ref lo and finished = ref false in
  while not !finished do
    let y = permute t.nibbles !x in
    if y < !best then best := y;
    let size = !x land (- !x) in
    if !x = 0 || !x + size > hi then finished := true else x := !x + size
  done;
  !best
