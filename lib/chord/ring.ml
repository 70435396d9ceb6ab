(* The ring is its node ids, ascending and distinct. Fingers are derived:
   finger i of node n is [owner (n + 2^i)], one binary search away. *)
type t = int array

(* First index in [lo, hi) whose id is >= key, else [hi]. Top level, so a
   search allocates no closure. *)
let rec search sorted key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if sorted.(mid) < key then search sorted key (mid + 1) hi
    else search sorted key lo mid

(* Index of the owner of [key]: first node at or clockwise after key. *)
let owner_index sorted key =
  let n = Array.length sorted in
  let i = search sorted key 0 n in
  if i = n then 0 else i

let node_index sorted id =
  let i = owner_index sorted id in
  if sorted.(i) = id then i else raise Not_found

let create ~ids =
  if ids = [] then invalid_arg "Ring.create: no nodes";
  List.iter
    (fun id -> if not (Id.is_valid id) then invalid_arg "Ring.create: invalid id")
    ids;
  let sorted = Array.of_list (List.sort_uniq Int.compare ids) in
  if Array.length sorted <> List.length ids then
    invalid_arg "Ring.create: duplicate node identifiers";
  sorted

let of_names names = create ~ids:(List.map Id.of_name names)

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

let size = Array.length
let node_ids = Array.copy
let contains t id = try ignore (node_index t id : int); true with Not_found -> false

let owner t key = t.(owner_index t key)

let successor t id = t.((node_index t id + 1) mod size t)
let predecessor t id = t.((node_index t id + size t - 1) mod size t)

let finger t id i =
  if i < 0 || i >= Id.bits then invalid_arg "Ring.finger: index out of range";
  ignore (node_index t id : int);
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
let next_hop sorted i target =
  let n = Array.length sorted in
  if (i + 1) mod n = target then target
  else
    let node = sorted.(i) in
    let p = sorted.((target + n - 1) mod n) in
    owner_index sorted
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
let rec walk sorted cache ~target next hops =
  let id = sorted.(next) in
  (match cache with None -> () | Some c -> Route_cache.learn c id);
  Obs.Trace.event_i "hop" "node" id;
  if next = target then hops + 1
  else walk sorted cache ~target (next_hop sorted next target) (hops + 1)

let source_index t ~msg from =
  match node_index t from with
  | i -> i
  | exception Not_found -> invalid_arg msg

let m_lookups = Obs.Metrics.counter "chord.ring.lookups"
let m_messages = Obs.Metrics.counter "chord.ring.messages"
let h_hops = Obs.Metrics.histogram "chord.ring.hops"

let record t ~target hops =
  let owner = t.(target) in
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
          match Route_cache.best_shortcut cache ~from ~target:t.(target) with
          | Some c
            when Id.distance_cw ~from ~to_:c > Id.distance_cw ~from ~to_:t.(plain)
            ->
            cache.Route_cache.shortcuts <- cache.Route_cache.shortcuts + 1;
            Obs.Metrics.incr m_shortcuts;
            Obs.Trace.set_bool "shortcut" true;
            Obs.Trace.event_i "shortcut" "node" c;
            let ci = node_index t c in
            if ci = target then 1
            else walk t (Some cache) ~target (next_hop t ci target) 1
          | Some _ | None ->
            cache.Route_cache.full_walks <- cache.Route_cache.full_walks + 1;
            walk t (Some cache) ~target plain 0
        end
      in
      record t ~target hops)
