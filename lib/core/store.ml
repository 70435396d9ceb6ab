type entry = {
  range : Rangeset.Range.t;
  partition : Relational.Partition.t option;
}

type policy = Unbounded | Lru of int | Fifo of int

(* Entries carry a stamp from a per-store logical clock: insertion time
   under FIFO, last-use time under LRU. Eviction scans for the minimum
   stamp — O(entries), fine at simulation scale and free when unbounded. *)
type stamped = { entry : entry; mutable stamp : int }

type table = {
  buckets : (int, stamped list) Hashtbl.t;
  mutable entries : int;
  mutable clock : int;
  mutable evictions : int;
}

(* Most peers never store anything, so a store has no table until its
   first insert: an unwritten store is its policy and [None], and every
   read of it answers from that without allocating. The LRU clock starts
   with the table; stamps only order entries within one store, so reads
   before the first insert could not change eviction order anyway. *)
type t = { policy : policy; mutable table : table option }

let capacity_of = function
  | Unbounded -> max_int
  | Lru n | Fifo n -> n

let create ?(policy = Unbounded) () =
  if capacity_of policy < 1 then
    invalid_arg "Store.create: capacity must be at least 1";
  { policy; table = None }

let policy t = t.policy

let bucket tb identifier =
  Option.value (Hashtbl.find_opt tb.buckets identifier) ~default:[]

let raw_bucket t identifier =
  match t.table with None -> [] | Some tb -> bucket tb identifier

let fold_bucket t ~identifier f init =
  match (t.table, t.policy) with
  | None, _ -> init
  | Some tb, Lru _ ->
    tb.clock <- tb.clock + 1;
    let now = tb.clock in
    List.fold_left
      (fun acc s ->
        s.stamp <- now;
        f acc s.entry)
      init (bucket tb identifier)
  | Some tb, (Unbounded | Fifo _) ->
    List.fold_left (fun acc s -> f acc s.entry) init (bucket tb identifier)

let peek_bucket t ~identifier =
  List.map (fun s -> s.entry) (raw_bucket t identifier)

let remove_bucket t ~identifier =
  match t.table with
  | None -> 0
  | Some tb -> (
    match Hashtbl.find_opt tb.buckets identifier with
    | None -> 0
    | Some stamped ->
      Hashtbl.remove tb.buckets identifier;
      let n = List.length stamped in
      tb.entries <- tb.entries - n;
      n)

let mem t ~identifier ~range =
  List.exists
    (fun s -> Rangeset.Range.equal s.entry.range range)
    (raw_bucket t identifier)

(* Remove the entry with the smallest stamp anywhere in the store. *)
let evict_one tb =
  let victim = ref None in
  Hashtbl.iter
    (fun identifier stamped ->
      List.iter
        (fun s ->
          match !victim with
          | Some (_, best) when best.stamp <= s.stamp -> ()
          | Some _ | None -> victim := Some (identifier, s))
        stamped)
    tb.buckets;
  match !victim with
  | None -> ()
  | Some (identifier, s) ->
    let remaining = List.filter (fun s' -> s' != s) (bucket tb identifier) in
    if remaining = [] then Hashtbl.remove tb.buckets identifier
    else Hashtbl.replace tb.buckets identifier remaining;
    tb.entries <- tb.entries - 1;
    tb.evictions <- tb.evictions + 1

(* The store's table, made on its first write. *)
let table t =
  match t.table with
  | Some tb -> tb
  | None ->
    let tb =
      { buckets = Hashtbl.create 16; entries = 0; clock = 0; evictions = 0 }
    in
    t.table <- Some tb;
    tb

let insert t ~identifier entry =
  let fresh = not (mem t ~identifier ~range:entry.range) in
  if fresh then begin
    let tb = table t in
    while tb.entries >= capacity_of t.policy do
      evict_one tb
    done;
    tb.clock <- tb.clock + 1;
    let stamped = { entry; stamp = tb.clock } in
    Hashtbl.replace tb.buckets identifier (stamped :: bucket tb identifier);
    tb.entries <- tb.entries + 1
  end;
  fresh

let identifiers t =
  match t.table with
  | None -> []
  | Some tb ->
    Hashtbl.fold (fun identifier _ acc -> identifier :: acc) tb.buckets []
    |> List.sort Int.compare

let all_entries t =
  match t.table with
  | None -> []
  | Some tb ->
    Hashtbl.fold
      (fun _ stamped acc ->
        List.rev_append (List.map (fun s -> s.entry) stamped) acc)
      tb.buckets []

let bucket_count t =
  match t.table with None -> 0 | Some tb -> Hashtbl.length tb.buckets

let entry_count t = match t.table with None -> 0 | Some tb -> tb.entries
let evictions t = match t.table with None -> 0 | Some tb -> tb.evictions
