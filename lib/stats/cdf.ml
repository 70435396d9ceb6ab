type t = { sorted : float array }

let of_samples = function
  | [] -> invalid_arg "Cdf.of_samples: empty sample"
  | l ->
    let sorted = Array.of_list l in
    Array.sort compare sorted;
    { sorted }

let count t = Array.length t.sorted

(* Index of the first element >= x (n if none), by binary search. *)
let lower_bound sorted x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length sorted)

(* Index of the first element > x. *)
let upper_bound sorted x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted.(mid) <= x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length sorted)

let fraction_at_most t x =
  float_of_int (upper_bound t.sorted x) /. float_of_int (count t)

let fraction_at_least t x =
  float_of_int (count t - lower_bound t.sorted x) /. float_of_int (count t)

let percent_at_least t x = 100.0 *. fraction_at_least t x

let series t ~thresholds =
  List.map (fun x -> (x, percent_at_least t x)) thresholds
