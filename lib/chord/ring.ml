(* The ring is its node ids, ascending and distinct, plus a radix
   directory over them. Fingers are derived: finger i of node n is
   [owner (n + 2^i)], one directory search away.

   SHA-1 ids are uniform, so the top b = ⌊log₂ n⌋ bits of a key name a
   bucket holding one or two ids on average. [dir.(p)] is the first index
   whose id's top b bits are >= p (so [dir.(2^b)] = n), and the first id
   >= key lies in [dir.(p), dir.(p + 1)] for the key's bucket p: a search
   is a binary search of that slice, which is O(1) on uniform ids and
   never worse than O(log n) on clustered ones. *)
type t = {
  ids : int array;
  dir : int array;  (* 2^b + 1 entries *)
  shift : int;  (* 32 - b: a key's bucket is [key lsr shift] *)
}

(* First index in [lo, hi) whose id is >= key, else [hi]. Top level, so a
   search allocates no closure. *)
let rec search ids key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if ids.(mid) < key then search ids key (mid + 1) hi
    else search ids key lo mid

(* Index of the owner of [key]: first node at or clockwise after key. A
   key outside [0, 2^32) has no bucket, and the first node owns it, as a
   search of the whole array says: below the ring every id is >= the key,
   and above it none is, which wraps to the first node. *)
let owner_index t key =
  let p = key lsr t.shift in
  if p >= Array.length t.dir - 1 then 0
  else
    let i = search t.ids key t.dir.(p) t.dir.(p + 1) in
    if i = Array.length t.ids then 0 else i

let index_of t id =
  let i = owner_index t id in
  if t.ids.(i) = id then i else raise Not_found

(* ⌊log₂ n⌋ for n >= 1. *)
let floor_log2 n =
  let rec go b = if n lsr (b + 1) = 0 then b else go (b + 1) in
  go 0

let of_sorted ids =
  let n = Array.length ids in
  let b = floor_log2 n in
  let shift = Id.bits - b in
  let dir = Array.make ((1 lsl b) + 1) n in
  let i = ref 0 in
  for p = 0 to (1 lsl b) - 1 do
    while !i < n && ids.(!i) lsr shift < p do
      incr i
    done;
    dir.(p) <- !i
  done;
  { ids; dir; shift }

let create ~ids =
  if ids = [] then invalid_arg "Ring.create: no nodes";
  List.iter
    (fun id -> if not (Id.is_valid id) then invalid_arg "Ring.create: invalid id")
    ids;
  let sorted = Array.of_list (List.sort_uniq Int.compare ids) in
  if Array.length sorted <> List.length ids then
    invalid_arg "Ring.create: duplicate node identifiers";
  of_sorted sorted

let random rng ~n =
  if n <= 0 then invalid_arg "Ring.random: need at least one node";
  let module ISet = Set.Make (Int) in
  (* [count] is the set's size: a repeated draw leaves it unchanged. *)
  let rec draw set count =
    if count = n then ISet.elements set
    else
      let id = Prng.Splitmix.int rng Id.modulus in
      if ISet.mem id set then draw set count
      else draw (ISet.add id set) (count + 1)
  in
  create ~ids:(draw ISet.empty 0)

let size t = Array.length t.ids
let node_ids t = Array.copy t.ids

let owner t key = t.ids.(owner_index t key)

let successor t id = t.ids.((index_of t id + 1) mod size t)
let predecessor t id = t.ids.((index_of t id + size t - 1) mod size t)

let finger t id i =
  if i < 0 || i >= Id.bits then invalid_arg "Ring.finger: index out of range";
  ignore (index_of t id : int);
  owner t (Id.add_pow2 id i)

(* 2^⌊log₂ d⌋ for 1 <= d < 2^32: smear the top bit down, keep only it. *)
let top_bit d =
  let d = d lor (d lsr 1) in
  let d = d lor (d lsr 2) in
  let d = d lor (d lsr 4) in
  let d = d lor (d lsr 8) in
  let d = d lor (d lsr 16) in
  d - (d lsr 1)

(* Index of the closest finger of node index [i] preceding the key whose
   owner has index [target] (i <> target); the successor when none does.
   Let p be the last node before the key and d its clockwise distance
   from node i. Finger j starts at node + 2^j: within d, its owner lies in
   (node, p]; past d, it is the key's owner or a later node, outside
   (node, key). So the descending table scan would stop at j = ⌊log₂ d⌋. *)
let next_hop t i target =
  let n = Array.length t.ids in
  if (i + 1) mod n = target then target
  else
    let node = t.ids.(i) in
    let p = t.ids.((target + n - 1) mod n) in
    owner_index t
      ((node + top_bit (Id.distance_cw ~from:node ~to_:p)) land (Id.modulus - 1))

module Route_cache = struct
  module Ids = Set.Make (Int)

  type t = {
    mutable known : Ids.t;
    mutable shortcuts : int;
    mutable full_walks : int;
  }

  let create () = { known = Ids.empty; shortcuts = 0; full_walks = 0 }
  let learn t id = t.known <- Ids.add id t.known
  let known t = Ids.cardinal t.known
  let shortcuts t = t.shortcuts
  let full_walks t = t.full_walks

  (* The known node that makes the most clockwise progress from [from]
     without passing the owner — the best address to contact directly.
     That is the known node at or counter-clockwise before [target],
     wrapping past 0, if it lies in (from, target]. Needs from <> target. *)
  let best_shortcut t ~from ~target =
    let c =
      match Ids.find_last_opt (fun c -> c <= target) t.known with
      | Some _ as c -> c
      | None -> Ids.max_elt_opt t.known
    in
    match c with
    | Some c when c <> from && Id.in_interval_oc c ~lo:from ~hi:target -> Some c
    | Some _ | None -> None
end

(* Hops to node index [next], then on to the owner index [target];
   returns [hops] plus the hops taken. [cache] learns every node reached. *)
let rec walk t cache ~target next hops =
  let id = t.ids.(next) in
  (match cache with None -> () | Some c -> Route_cache.learn c id);
  Obs.Trace.event_i "hop" "node" id;
  if next = target then hops + 1
  else walk t cache ~target (next_hop t next target) (hops + 1)

let source_index t ~msg from =
  match index_of t from with
  | i -> i
  | exception Not_found -> invalid_arg msg

let m_lookups = Obs.Metrics.counter "chord.ring.lookups"
let m_messages = Obs.Metrics.counter "chord.ring.messages"
let h_hops = Obs.Metrics.histogram "chord.ring.hops"

let record t ~target hops =
  let owner = t.ids.(target) in
  Obs.Trace.set_int "owner" owner;
  Obs.Trace.set_int "hops" hops;
  Obs.Metrics.incr m_lookups;
  (* One message per hop plus the final reply to the requester. *)
  Obs.Metrics.add m_messages (hops + 1);
  Obs.Metrics.observe_int h_hops hops;
  (owner, hops)

let lookup t ~from ~key =
  let i = source_index t ~msg:"Ring.lookup: unknown source node" from in
  Obs.Trace.with_span "chord.lookup" (fun () ->
      Obs.Trace.set_int "from" from;
      Obs.Trace.set_int "key" key;
      let target = owner_index t key in
      let hops =
        if target = i then 0 else walk t None ~target (next_hop t i target) 0
      in
      record t ~target hops)

let m_cached_lookups = Obs.Metrics.counter "chord.ring.cached_lookups"
let m_shortcuts = Obs.Metrics.counter "chord.ring.shortcuts"

let lookup_via t cache ~from ~key =
  let i = source_index t ~msg:"Ring.lookup_via: unknown source node" from in
  Obs.Trace.with_span "chord.lookup" (fun () ->
      Obs.Trace.set_int "from" from;
      Obs.Trace.set_int "key" key;
      let target = owner_index t key in
      Route_cache.learn cache from;
      Obs.Metrics.incr m_cached_lookups;
      let hops =
        if target = i then 0
        else begin
          (* A cached address is only worth a direct first hop when it beats
             the finger the plain walk would take anyway — so a cached lookup
             never routes longer than an uncached one. *)
          let plain = next_hop t i target in
          let owner = t.ids.(target) in
          match Route_cache.best_shortcut cache ~from ~target:owner with
          | Some c
            when Id.distance_cw ~from ~to_:c
                 > Id.distance_cw ~from ~to_:t.ids.(plain) ->
            cache.Route_cache.shortcuts <- cache.Route_cache.shortcuts + 1;
            Obs.Metrics.incr m_shortcuts;
            Obs.Trace.set_bool "shortcut" true;
            Obs.Trace.event_i "shortcut" "node" c;
            let ci = index_of t c in
            if ci = target then 1
            else walk t (Some cache) ~target (next_hop t ci target) 1
          | Some _ | None ->
            cache.Route_cache.full_walks <- cache.Route_cache.full_walks + 1;
            walk t (Some cache) ~target plain 0
        end
      in
      record t ~target hops)
