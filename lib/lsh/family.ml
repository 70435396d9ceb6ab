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

let minhash_set fn set =
  match Rangeset.Range_set.ranges set with
  | [] -> invalid_arg "Family.minhash_set: empty set"
  | ranges ->
    List.fold_left
      (fun best range -> Stdlib.min best (minhash_range fn range))
      max_int ranges

(* Wire format: "b<bits>:<key>,<key>,…" for bit networks (hex keys, level 0
   first) and "l<p>:<a>:<b>" for linear permutations. Single tokens with no
   whitespace, so schemes can join them with separators freely. *)

let serialize = function
  | Bit p ->
    let keys =
      Bit_perm.keys p |> Array.to_list
      |> List.map (Printf.sprintf "%x")
      |> String.concat ","
    in
    Printf.sprintf "b%d:%s" (Bit_perm.bits p) keys
  | Lin p ->
    let a, b = Linear_perm.coefficients p in
    Printf.sprintf "l%d:%d:%d" (Linear_perm.p p) a b
  | Tab _ ->
    invalid_arg "Family.serialize: tabulated permutations are not portable"

let deserialize s =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  if s = "" then fail "empty function encoding"
  else
    match (s.[0], String.split_on_char ':' (String.sub s 1 (String.length s - 1))) with
    | 'b', [ bits; keys ] -> (
      match int_of_string_opt bits with
      | None -> fail "bad bit width %S" bits
      | Some bits -> (
        let parsed =
          List.map
            (fun k -> int_of_string_opt ("0x" ^ k))
            (String.split_on_char ',' keys)
        in
        if List.exists Option.is_none parsed then fail "bad key in %S" keys
        else
          let keys = Array.of_list (List.map Option.get parsed) in
          match Bit_perm.of_keys ~bits keys with
          | perm -> Ok (Bit perm)
          | exception Invalid_argument m -> fail "invalid bit network: %s" m))
    | 'l', [ p; a; b ] -> (
      match (int_of_string_opt p, int_of_string_opt a, int_of_string_opt b) with
      | Some p, Some a, Some b -> (
        match Linear_perm.make ~p ~a ~b with
        | perm -> Ok (Lin perm)
        | exception Invalid_argument m -> fail "invalid linear permutation: %s" m)
      | _ -> fail "bad linear parameters in %S" s)
    | _ -> fail "unrecognized function encoding %S" s
