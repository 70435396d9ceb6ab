type t = { lo : int; hi : int }

let make ~lo ~hi =
  if hi < lo then invalid_arg "Range.make: hi < lo";
  { lo; hi }

let point v = { lo = v; hi = v }

let lo t = t.lo
let hi t = t.hi

let cardinal t = t.hi - t.lo + 1

let mem v t = t.lo <= v && v <= t.hi

let equal a b = a.lo = b.lo && a.hi = b.hi

let compare a b =
  match Int.compare a.lo b.lo with 0 -> Int.compare a.hi b.hi | c -> c

let intersect a b =
  let lo = Stdlib.max a.lo b.lo and hi = Stdlib.min a.hi b.hi in
  if hi < lo then None else Some { lo; hi }

(* Int-only, so the similarity measures below allocate nothing. *)
let overlap_cardinal a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if hi < lo then 0 else hi - lo + 1

let union_cardinal a b = cardinal a + cardinal b - overlap_cardinal a b

let contains ~outer ~inner = outer.lo <= inner.lo && inner.hi <= outer.hi

let span a b = { lo = Stdlib.min a.lo b.lo; hi = Stdlib.max a.hi b.hi }

let pad t ~fraction ~domain =
  if fraction < 0.0 then invalid_arg "Range.pad: negative fraction";
  if fraction = 0.0 then t
  else begin
    let width = cardinal t in
    let delta = Stdlib.max 1 (int_of_float (fraction *. float_of_int width)) in
    let lo = Stdlib.max domain.lo (t.lo - delta) in
    let hi = Stdlib.min domain.hi (t.hi + delta) in
    { lo; hi }
  end

let jaccard a b =
  let inter = overlap_cardinal a b in
  if inter = 0 then 0.0
  else float_of_int inter /. float_of_int (union_cardinal a b)

let containment ~query ~answer =
  float_of_int (overlap_cardinal query answer) /. float_of_int (cardinal query)

let iter_values f t =
  for v = t.lo to t.hi do
    f v
  done

let fold_values f init t =
  let acc = ref init in
  for v = t.lo to t.hi do
    acc := f !acc v
  done;
  !acc

let to_values t = List.init (cardinal t) (fun i -> t.lo + i)

let pp ppf t = Format.fprintf ppf "[%d, %d]" t.lo t.hi

let to_string t = Format.asprintf "%a" pp t
