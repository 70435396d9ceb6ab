type entry = {
  range : Rangeset.Range.t;
  partition : Relational.Partition.t option;
}

type policy = Unbounded | Lru of int | Fifo of int

(* Entries carry a stamp from a per-store logical clock: insertion time
   under FIFO, last-use time under LRU. Eviction scans for the minimum
   stamp — O(entries), fine at simulation scale and free when unbounded. *)
type stamped = { entry : entry; mutable stamp : int }

type t = {
  policy : policy;
  buckets : (int, stamped list) Hashtbl.t;
  mutable entries : int;
  mutable clock : int;
  mutable evictions : int;
}

let capacity_of = function
  | Unbounded -> max_int
  | Lru n | Fifo n -> n

let create ?(policy = Unbounded) () =
  if capacity_of policy < 1 then
    invalid_arg "Store.create: capacity must be at least 1";
  {
    policy;
    buckets = Hashtbl.create 16;
    entries = 0;
    clock = 0;
    evictions = 0;
  }

let policy t = t.policy

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let raw_bucket t identifier =
  Option.value (Hashtbl.find_opt t.buckets identifier) ~default:[]

let fold_bucket t ~identifier f init =
  let stamped = raw_bucket t identifier in
  match t.policy with
  | Lru _ ->
    let now = tick t in
    List.fold_left
      (fun acc s ->
        s.stamp <- now;
        f acc s.entry)
      init stamped
  | Unbounded | Fifo _ ->
    List.fold_left (fun acc s -> f acc s.entry) init stamped

let peek_bucket t ~identifier =
  List.map (fun s -> s.entry) (raw_bucket t identifier)

let remove_bucket t ~identifier =
  match Hashtbl.find_opt t.buckets identifier with
  | None -> 0
  | Some stamped ->
    Hashtbl.remove t.buckets identifier;
    let n = List.length stamped in
    t.entries <- t.entries - n;
    n

let mem t ~identifier ~range =
  List.exists
    (fun s -> Rangeset.Range.equal s.entry.range range)
    (raw_bucket t identifier)

(* Remove the entry with the smallest stamp anywhere in the store. *)
let evict_one t =
  let victim = ref None in
  Hashtbl.iter
    (fun identifier stamped ->
      List.iter
        (fun s ->
          match !victim with
          | Some (_, best) when best.stamp <= s.stamp -> ()
          | Some _ | None -> victim := Some (identifier, s))
        stamped)
    t.buckets;
  match !victim with
  | None -> ()
  | Some (identifier, s) ->
    let remaining = List.filter (fun s' -> s' != s) (raw_bucket t identifier) in
    if remaining = [] then Hashtbl.remove t.buckets identifier
    else Hashtbl.replace t.buckets identifier remaining;
    t.entries <- t.entries - 1;
    t.evictions <- t.evictions + 1

let insert t ~identifier entry =
  let fresh = not (mem t ~identifier ~range:entry.range) in
  if fresh then begin
    while t.entries >= capacity_of t.policy do
      evict_one t
    done;
    let stamped = { entry; stamp = tick t } in
    Hashtbl.replace t.buckets identifier (stamped :: raw_bucket t identifier);
    t.entries <- t.entries + 1
  end;
  fresh

let identifiers t =
  Hashtbl.fold (fun identifier _ acc -> identifier :: acc) t.buckets []
  |> List.sort Int.compare

let all_entries t =
  Hashtbl.fold
    (fun _ stamped acc -> List.rev_append (List.map (fun s -> s.entry) stamped) acc)
    t.buckets []

let bucket_count t = Hashtbl.length t.buckets
let entry_count t = t.entries
let evictions t = t.evictions
