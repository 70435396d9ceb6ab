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

let amplification ~k ~l p =
  1.0 -. ((1.0 -. (p ** float_of_int k)) ** float_of_int l)
