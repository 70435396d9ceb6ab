type combine = Xor | Sum_mod

type t = {
  kind : Family.kind;
  k : int;
  l : int;
  combine : combine;
  groups : Family.fn array array;
}

let create ?universe ?(combine = Xor) kind ~k ~l rng =
  if k < 1 || l < 1 then invalid_arg "Scheme.create: k and l must be >= 1";
  let groups =
    Array.init l (fun _ -> Array.init k (fun _ -> Family.create ?universe kind rng))
  in
  { kind; k; l; combine; groups }

let default ?universe kind rng = create ?universe kind ~k:20 ~l:5 rng

let k t = t.k
let l t = t.l
let kind t = t.kind
let combining t = t.combine
let functions t = t.groups

let mask32 = 0xFFFFFFFF

let m_batches = Obs.Metrics.counter "lsh.identifier_batches"
let m_evals = Obs.Metrics.counter "lsh.minhash_evals"

let identifier_of_group combine group minhash =
  match combine with
  | Xor -> Array.fold_left (fun acc fn -> acc lxor minhash fn) 0 group land mask32
  | Sum_mod ->
    Array.fold_left (fun acc fn -> acc + minhash fn) 0 group land mask32

(* Per-(k,l)-group spans live behind an explicit [Trace.enabled] guard:
   this loop is the hashing hot path, so the disabled path must not even
   allocate the span closures. *)
let traced_groups t minhash =
  List.init t.l (fun gi ->
      Obs.Trace.with_span "lsh.group" (fun () ->
          Obs.Trace.set_int "group" gi;
          Obs.Trace.set_int "k" t.k;
          let id = identifier_of_group t.combine t.groups.(gi) minhash in
          Obs.Trace.set_int "identifier" id;
          id))

let identifiers_of_range t range =
  Obs.Metrics.incr m_batches;
  Obs.Metrics.add m_evals (t.k * t.l);
  let minhash fn = Family.minhash_range fn range in
  if Obs.Trace.enabled () then traced_groups t minhash
  else
    Array.to_list
      (Array.map (fun group -> identifier_of_group t.combine group minhash) t.groups)

let identifiers_of_set t set =
  Obs.Metrics.incr m_batches;
  Obs.Metrics.add m_evals (t.k * t.l);
  let minhash fn = Family.minhash_set fn set in
  if Obs.Trace.enabled () then traced_groups t minhash
  else
    Array.to_list
      (Array.map (fun group -> identifier_of_group t.combine group minhash) t.groups)

let amplification ~k ~l p =
  1.0 -. ((1.0 -. (p ** float_of_int k)) ** float_of_int l)

(* Wire format: "v1|<kind>|<k>|<l>|<combine>|fn fn fn …" with the l×k
   functions flattened group-major. *)

let to_string t =
  let fns =
    Array.to_list t.groups
    |> List.concat_map (fun group ->
           Array.to_list (Array.map Family.serialize group))
    |> String.concat " "
  in
  Printf.sprintf "v1|%s|%d|%d|%s|%s"
    (Family.kind_name t.kind)
    t.k t.l
    (match t.combine with Xor -> "xor" | Sum_mod -> "sum")
    fns

let of_string s =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  match String.split_on_char '|' s with
  | [ "v1"; kind; k; l; combine; fns ] -> (
    match
      ( Family.kind_of_name kind,
        int_of_string_opt k,
        int_of_string_opt l,
        match combine with
        | "xor" -> Some Xor
        | "sum" -> Some Sum_mod
        | _ -> None )
    with
    | Some kind, Some k, Some l, Some combine when k >= 1 && l >= 1 -> (
      let tokens =
        String.split_on_char ' ' fns |> List.filter (fun t -> t <> "")
      in
      if List.length tokens <> k * l then
        fail "expected %d functions, found %d" (k * l) (List.length tokens)
      else
        let parsed = List.map Family.deserialize tokens in
        match
          List.find_map (function Error m -> Some m | Ok _ -> None) parsed
        with
        | Some m -> Error m
        | None ->
          let fns =
            Array.of_list
              (List.map (function Ok fn -> fn | Error _ -> assert false) parsed)
          in
          let groups = Array.init l (fun g -> Array.sub fns (g * k) k) in
          Ok { kind; k; l; combine; groups })
    | _ -> fail "bad scheme header in %S" s)
  | _ -> fail "unrecognized scheme encoding"
