type hot_policy = Absolute of int

type t = {
  policy : hot_policy;
  window : int;
  mutable in_window : int; (* lookups recorded into [current] so far *)
  mutable current : (int, int) Hashtbl.t; (* identifier -> hits, this window *)
  mutable previous : (int, int) Hashtbl.t; (* last full window *)
  peer_loads : (int, int) Hashtbl.t; (* peer -> cumulative served lookups *)
  mutable total : int;
  mutable max_load : int; (* largest value in [peer_loads] *)
}

let create ?(window = 1024) policy =
  if window < 1 then invalid_arg "Tracker.create: window must be >= 1";
  (match policy with
  | Absolute n ->
    if n < 1 then invalid_arg "Tracker.create: absolute threshold must be >= 1");
  {
    policy;
    window;
    in_window = 0;
    current = Hashtbl.create 64;
    previous = Hashtbl.create 64;
    peer_loads = Hashtbl.create 64;
    total = 0;
    max_load = 0;
  }

let lookup_count table key =
  Option.value (Hashtbl.find_opt table key) ~default:0

let record_query t ~peer ~identifier =
  let load = 1 + lookup_count t.peer_loads peer in
  Hashtbl.replace t.peer_loads peer load;
  if load > t.max_load then t.max_load <- load;
  Hashtbl.replace t.current identifier (1 + lookup_count t.current identifier);
  t.total <- t.total + 1;
  t.in_window <- t.in_window + 1;
  if t.in_window >= t.window then begin
    let retired = t.previous in
    t.previous <- t.current;
    Hashtbl.reset retired;
    t.current <- retired;
    t.in_window <- 0
  end

let total_queries t = t.total

let peer_load t peer = lookup_count t.peer_loads peer

let hot_score t identifier =
  lookup_count t.current identifier + lookup_count t.previous identifier

(* All identifiers seen in either window with their combined scores, score
   descending, identifier ascending. *)
let windowed_scores t =
  let acc = Hashtbl.create (Hashtbl.length t.current + Hashtbl.length t.previous) in
  let note id _ = if not (Hashtbl.mem acc id) then Hashtbl.replace acc id (hot_score t id) in
  Hashtbl.iter note t.current;
  Hashtbl.iter note t.previous;
  Hashtbl.fold (fun id score l -> (id, score) :: l) acc []
  |> List.sort (fun (ida, sa) (idb, sb) ->
         if sa <> sb then Int.compare sb sa else Int.compare ida idb)

let is_hot t identifier =
  match t.policy with Absolute n -> hot_score t identifier >= n

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
