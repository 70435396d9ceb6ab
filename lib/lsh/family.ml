type kind = Exact_minwise | Approx_minwise | Linear | Random_tabulated

let all_kinds = [ Exact_minwise; Approx_minwise; Linear ]

let kind_name = function
  | Exact_minwise -> "min-wise"
  | Approx_minwise -> "approx-min-wise"
  | Linear -> "linear"
  | Random_tabulated -> "random-tabulated"

let kind_of_name = function
  | "min-wise" | "minwise" | "exact" -> Some Exact_minwise
  | "approx-min-wise" | "approx" -> Some Approx_minwise
  | "linear" -> Some Linear
  | "random-tabulated" | "tabulated" -> Some Random_tabulated
  | _ -> None

type fn =
  | Bit of Bit_perm.t (* covers both the exact and approximate variants *)
  | Lin of Linear_perm.t
  | Tab of int array (* table.(v) = π(v) over [0, universe) *)

let create ?universe kind rng =
  match kind with
  | Exact_minwise -> Bit (Bit_perm.random ~bits:32 rng)
  | Approx_minwise -> Bit (Bit_perm.random ~bits:32 ~levels:1 rng)
  | Linear ->
    let p =
      match universe with
      | None -> Linear_perm.default_p
      | Some u -> Linear_perm.next_prime u
    in
    Lin (Linear_perm.random ~p rng)
  | Random_tabulated -> (
    match universe with
    | None -> invalid_arg "Family.create: Random_tabulated requires a universe"
    | Some u ->
      if u < 1 then invalid_arg "Family.create: universe must be positive";
      let table = Array.init u (fun i -> i) in
      Prng.Splitmix.shuffle_in_place rng table;
      Tab table)

let kind_of_fn = function
  | Bit p -> if Bit_perm.levels p = 1 then Approx_minwise else Exact_minwise
  | Lin _ -> Linear
  | Tab _ -> Random_tabulated

let apply fn v =
  match fn with
  | Bit p -> Bit_perm.apply p v
  | Lin p -> Linear_perm.apply p v
  | Tab table ->
    if v < 0 || v >= Array.length table then
      invalid_arg "Family.apply: value outside the tabulated universe";
    table.(v)

let minhash_range fn range =
  let lo = Rangeset.Range.lo range and hi = Rangeset.Range.hi range in
  match fn with
  | Bit p -> Bit_perm.range_min p ~lo ~hi
  | Lin _ | Tab _ ->
    let best = ref max_int in
    for v = lo to hi do
      let h = apply fn v in
      if h < !best then best := h
    done;
    !best
