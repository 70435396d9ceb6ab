type hot_policy = Absolute of int | Top_k of int

(* Cached top-k hot set. [floor] is the (score, id) rank of the weakest
   member at compute time when the set was full (k members), [None] when
   every positive-score identifier already fit. Member scores only grow
   between window rotations, so a newcomer that does not beat the stored
   floor cannot beat the live one either. *)
type cache = {
  rev : int;
  set : (int, unit) Hashtbl.t;
  floor : (int * int) option;
}

type t = {
  policy : hot_policy;
  window : int;
  mutable in_window : int; (* lookups recorded into [current] so far *)
  mutable current : (int, int) Hashtbl.t; (* identifier -> hits, this window *)
  mutable previous : (int, int) Hashtbl.t; (* last full window *)
  peer_loads : (int, int) Hashtbl.t; (* peer -> cumulative served lookups *)
  peer_entries : (int, int) Hashtbl.t; (* peer -> cumulative stored entries *)
  mutable total : int;
  mutable max_load : int; (* largest value in [peer_loads] *)
  (* Top-k hot sets are recomputed lazily; [revision] invalidates. *)
  mutable revision : int;
  mutable hot_cache : cache option;
  mutable recomputations : int;
}

let create ?(window = 1024) policy =
  if window < 1 then invalid_arg "Tracker.create: window must be >= 1";
  (match policy with
  | Absolute n ->
    if n < 1 then invalid_arg "Tracker.create: absolute threshold must be >= 1"
  | Top_k k -> if k < 1 then invalid_arg "Tracker.create: top-k must be >= 1");
  {
    policy;
    window;
    in_window = 0;
    current = Hashtbl.create 64;
    previous = Hashtbl.create 64;
    peer_loads = Hashtbl.create 64;
    peer_entries = Hashtbl.create 64;
    total = 0;
    max_load = 0;
    revision = 0;
    hot_cache = None;
    recomputations = 0;
  }

let bump table key =
  Hashtbl.replace table key (1 + Option.value (Hashtbl.find_opt table key) ~default:0)

let lookup_count table key =
  Option.value (Hashtbl.find_opt table key) ~default:0

let hot_score t identifier =
  lookup_count t.current identifier + lookup_count t.previous identifier

(* Rank order used everywhere: score descending, identifier ascending. *)
let outranks (sa, ida) (sb, idb) = sa > sb || (sa = sb && ida < idb)

let invalidate t = t.revision <- t.revision + 1

(* A recorded lookup can only change the top-k set when the identifier is
   outside it: members gaining score stay members, and nobody else moved.
   A newcomer enters only when the set was underfull or its bumped score
   now outranks the cached floor — everything else keeps the cache. *)
let note_recorded t identifier =
  match t.hot_cache with
  | Some c when c.rev = t.revision ->
    if not (Hashtbl.mem c.set identifier) then begin
      match c.floor with
      | None -> invalidate t
      | Some floor ->
        if outranks (hot_score t identifier, identifier) floor then invalidate t
    end
  | Some _ | None -> ()

let record_query t ~peer ~identifier =
  let load = 1 + lookup_count t.peer_loads peer in
  Hashtbl.replace t.peer_loads peer load;
  if load > t.max_load then t.max_load <- load;
  bump t.current identifier;
  t.total <- t.total + 1;
  t.in_window <- t.in_window + 1;
  note_recorded t identifier;
  if t.in_window >= t.window then begin
    let retired = t.previous in
    t.previous <- t.current;
    Hashtbl.reset retired;
    t.current <- retired;
    t.in_window <- 0;
    invalidate t
  end

let record_entry t ~peer = bump t.peer_entries peer

let total_queries t = t.total

let peer_load t peer = lookup_count t.peer_loads peer
let peer_entries t peer = lookup_count t.peer_entries peer

(* All identifiers seen in either window, with their combined scores. *)
let scored t =
  let acc = Hashtbl.create (Hashtbl.length t.current + Hashtbl.length t.previous) in
  let note id _ = if not (Hashtbl.mem acc id) then Hashtbl.replace acc id (hot_score t id) in
  Hashtbl.iter note t.current;
  Hashtbl.iter note t.previous;
  Hashtbl.fold (fun id score l -> (id, score) :: l) acc []
  |> List.sort (fun (ida, sa) (idb, sb) ->
         if sa <> sb then Int.compare sb sa else Int.compare ida idb)

let windowed_scores t = scored t

let top_k_set t k =
  match t.hot_cache with
  | Some c when c.rev = t.revision -> c.set
  | Some _ | None ->
    t.recomputations <- t.recomputations + 1;
    let set = Hashtbl.create k in
    let members = ref 0 in
    let weakest = ref None in
    List.iteri
      (fun i (id, score) ->
        if i < k && score > 0 then begin
          Hashtbl.replace set id ();
          incr members;
          weakest := Some (score, id)
        end)
      (scored t);
    let floor = if !members = k then !weakest else None in
    t.hot_cache <- Some { rev = t.revision; set; floor };
    set

let recomputations t = t.recomputations

let is_hot t identifier =
  match t.policy with
  | Absolute n -> hot_score t identifier >= n
  | Top_k k -> Hashtbl.mem (top_k_set t k) identifier

let hot_identifiers t =
  List.filter_map
    (fun (id, _) -> if is_hot t id then Some id else None)
    (scored t)

(* Max/mean, shared by the list form and the running tallies so both give
   bit-identical ratios. *)
let ratio ~max ~total ~count =
  if count = 0 || total = 0 then 0.0
  else
    let mean = float_of_int total /. float_of_int count in
    float_of_int max /. mean

let imbalance loads =
  ratio
    ~max:(List.fold_left Stdlib.max 0 loads)
    ~total:(List.fold_left ( + ) 0 loads)
    ~count:(List.length loads)

let load_imbalance t ~peers = ratio ~max:t.max_load ~total:t.total ~count:peers
