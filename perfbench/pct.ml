(* Nearest-rank percentiles that say how many samples back them.

   A percentile is reported with its sample count and the number of
   samples ranked beyond it; one with fewer than [min_beyond] samples
   beyond is refused, since its value then rests on a handful of
   outliers. *)

type t = { value : float; n : int; beyond : int }

let min_beyond = 10

(* [rank] is the 1-based nearest rank of the [p]-quantile of [n]
   samples: the smallest rank whose share of samples reaches [p] (with
   slack for the rounding in [p *. n], so 0.9 of 30 is rank 27). *)
let rank ~n p =
  let r = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  Stdlib.max 1 (Stdlib.min n r)

let of_samples samples p =
  let n = Array.length samples in
  if n = 0 then Error "no samples"
  else if not (p > 0.0 && p < 1.0) then
    Error (Printf.sprintf "percentile %g outside (0, 1)" p)
  else
    let r = rank ~n p in
    let beyond = n - r in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g over %d samples has only %d beyond it (need %d)"
           (p *. 100.0) n beyond min_beyond)
    else begin
      let sorted = Array.copy samples in
      Array.sort Float.compare sorted;
      Ok { value = sorted.(r - 1); n; beyond }
    end
