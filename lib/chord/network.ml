type node = {
  id : int;
  mutable successor : int;
  mutable successors : int list; (* backup successor list, nearest first *)
  mutable predecessor : int option;
  fingers : int array; (* fingers.(i) routes toward id + 2^i; 0 = unset *)
  mutable dead : bool;
}

type t = {
  nodes : (int, node) Hashtbl.t;
  successor_list_length : int;
  mutable faults : (Faults.Plane.t * Faults.Retry.policy) option;
}

let create ?(successor_list_length = 8) ?faults ?(retry = Faults.Retry.default)
    () =
  if successor_list_length < 1 then
    invalid_arg "Network.create: successor list must hold at least one entry";
  Faults.Retry.validate retry;
  {
    nodes = Hashtbl.create 64;
    successor_list_length;
    faults = Option.map (fun plane -> (plane, retry)) faults;
  }

let set_faults t ?(retry = Faults.Retry.default) plane =
  Faults.Retry.validate retry;
  t.faults <- Some (plane, retry)

let clear_faults t = t.faults <- None
let faults t = Option.map fst t.faults

let node_opt t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n when not n.dead -> Some n
  | Some _ | None -> None

let node_exn t id =
  match node_opt t id with
  | Some n -> n
  | None -> invalid_arg "Network: unknown or dead node"

let alive t id = node_opt t id <> None

(* A node worth talking to: live, and not inside a fault-plane crash
   window. Without a plane this is exactly [alive], so fault-free runs
   behave bit-identically to builds that predate the plane. *)
let responsive t id =
  alive t id
  &&
  match t.faults with
  | None -> true
  | Some (plane, _) -> not (Faults.Plane.crashed plane id)

(* One unretried protocol message (stabilize/notify traffic — periodic, so
   a lost message just waits for the next round). *)
let message_ok t ~src ~dst =
  match t.faults with
  | None -> true
  | Some (plane, _) -> (
    match Faults.Plane.send plane ~src ~dst with
    | Faults.Plane.Delivered _ -> true
    | Faults.Plane.Dropped | Faults.Plane.Unreachable -> false)

(* A routed lookup hop: retried under the plane's policy. *)
let contact_ok t ~src ~dst =
  match t.faults with
  | None -> true
  | Some (plane, retry) -> (
    match Faults.Plane.rpc plane ~retry ~src ~dst () with
    | Ok _ -> true
    | Error _ -> false)

let size t =
  Hashtbl.fold (fun _ n acc -> if n.dead then acc else acc + 1) t.nodes 0

let node_ids t =
  Hashtbl.fold (fun id n acc -> if n.dead then acc else id :: acc) t.nodes []
  |> List.sort Int.compare

let fresh_node id ~successor =
  {
    id;
    successor;
    successors = [ successor ];
    predecessor = None;
    fingers = Array.make Id.bits 0;
    dead = false;
  }

let add_first t id =
  if not (Id.is_valid id) then invalid_arg "Network.add_first: invalid id";
  if Hashtbl.length t.nodes <> 0 then
    invalid_arg "Network.add_first: network already has nodes";
  let n = fresh_node id ~successor:id in
  n.predecessor <- Some id;
  Array.fill n.fingers 0 Id.bits id;
  Hashtbl.replace t.nodes id n

(* First responsive entry of a node's successor chain; falls back to
   itself. *)
let live_successor t n =
  let rec first = function
    | [] -> n.id
    | s :: rest -> if responsive t s then s else first rest
  in
  let s =
    if responsive t n.successor then n.successor else first n.successors
  in
  if s <> n.successor then n.successor <- s;
  s

(* Highest responsive finger strictly inside (n, key); [n] itself if none.
   The descending scan returns at the first qualifying finger instead of
   walking the remaining entries of the table. *)
let closest_preceding t n key =
  let rec scan i =
    if i < 0 then n.id
    else
      let f = n.fingers.(i) in
      if f <> 0 && responsive t f && Id.in_interval_oo f ~lo:n.id ~hi:key then f
      else scan (i - 1)
  in
  scan (Id.bits - 1)

let max_route_hops = 256

let m_lookups = Obs.Metrics.counter "chord.net.lookups"
let m_messages = Obs.Metrics.counter "chord.net.messages"
let m_hop_limit = Obs.Metrics.counter "chord.net.hop_limit_exceeded"
let m_failed = Obs.Metrics.counter "chord.net.failed_routes"
let m_fallbacks = Obs.Metrics.counter "chord.net.fallback_hops"
let h_hops = Obs.Metrics.histogram "chord.net.hops"

let find_successor t ~from ~key =
  Obs.Trace.with_span "chord.net.lookup" (fun () ->
      Obs.Trace.set_int "from" from;
      Obs.Trace.set_int "key" key;
      let result =
        match node_opt t from with
        | None -> None
        | Some start ->
          let rec route n hops =
            if hops > max_route_hops then begin
              Obs.Metrics.incr m_hop_limit;
              Obs.Trace.event "hop_limit";
              None
            end
            else begin
              let succ = live_successor t n in
              if Id.in_interval_oc key ~lo:n.id ~hi:succ then
                if succ = n.id then Some (n.id, hops)
                else if contact_ok t ~src:n.id ~dst:succ then begin
                  Obs.Trace.event_i "hop" "node" succ;
                  Some (succ, hops + 1)
                end
                else None (* owner unreachable within the retry budget *)
              else begin
                let next = closest_preceding t n key in
                let next = if next = n.id then succ else next in
                match node_opt t next with
                | None -> None
                | Some next_node ->
                  if next = n.id then None (* isolated: no live way forward *)
                  else if contact_ok t ~src:n.id ~dst:next then begin
                    Obs.Trace.event_i "hop" "node" next;
                    route next_node (hops + 1)
                  end
                  else fallback n ~failed:next hops
              end
            end
          (* A finger timed out past its retry budget: instead of dead-ending,
             fall back to successor-list hops — shorter strides, but they stay
             inside (n, key] so progress toward the owner is preserved. *)
          and fallback n ~failed hops =
            let rec try_hops tried = function
              | [] -> None
              | s :: rest ->
                if
                  s <> failed && s <> n.id
                  && not (List.mem s tried)
                  && responsive t s
                  && Id.in_interval_oo s ~lo:n.id ~hi:key
                  && contact_ok t ~src:n.id ~dst:s
                then begin
                  Obs.Metrics.incr m_fallbacks;
                  Obs.Trace.event_ii "fallback_hop" "node" s "failed" failed;
                  match node_opt t s with
                  | Some sn -> route sn (hops + 1)
                  | None -> try_hops (s :: tried) rest
                end
                else try_hops (s :: tried) rest
            in
            (* Stabilization keeps [n.successor] at the head of [n.successors],
               so the raw chain names the final fallback candidate twice;
               tracking tried nodes keeps each candidate to one retried
               contact instead of double-charging (and double-budgeting) the
               same hop when retries are enabled. *)
            try_hops [] (n.successor :: n.successors)
          in
          (* A node owning the key answers locally with zero hops. *)
          (match start.predecessor with
          | Some p
            when responsive t p && Id.in_interval_oc key ~lo:p ~hi:start.id ->
            Some (start.id, 0)
          | Some _ | None -> route start 0)
      in
      Obs.Metrics.incr m_lookups;
      (match result with
      | Some (owner, hops) ->
        Obs.Metrics.add m_messages (hops + 1);
        Obs.Metrics.observe_int h_hops hops;
        Obs.Trace.set_int "owner" owner;
        Obs.Trace.set_int "hops" hops
      | None ->
        Obs.Metrics.incr m_failed;
        Obs.Trace.set_bool "failed" true);
      result)

let join t id ~via =
  if not (Id.is_valid id) then invalid_arg "Network.join: invalid id";
  if Hashtbl.mem t.nodes id && alive t id then
    invalid_arg "Network.join: identifier already taken";
  let _ = node_exn t via in
  match find_successor t ~from:via ~key:id with
  | None -> invalid_arg "Network.join: bootstrap routing failed"
  | Some (succ, _) -> Hashtbl.replace t.nodes id (fresh_node id ~successor:succ)

let fail t id =
  let n = node_exn t id in
  n.dead <- true

let notify t target candidate =
  match node_opt t target with
  | None -> ()
  | Some n ->
    let should_adopt =
      match n.predecessor with
      | Some p when responsive t p -> Id.in_interval_oo candidate ~lo:p ~hi:n.id
      | Some _ | None -> true
    in
    if should_adopt && (candidate <> n.id || size t = 1) then
      n.predecessor <- Some candidate

let stabilize_node t n =
  let succ = live_successor t n in
  (* The whole stabilize exchange rides on one unretried message pair with
     the successor: if the plane drops it, this round's refresh is simply
     skipped — stabilization is periodic, the next round tries again. *)
  if succ = n.id || message_ok t ~src:n.id ~dst:succ then begin
    (* Adopt the successor's predecessor if it sits between us. *)
    (match node_opt t succ with
    | Some sn -> (
      match sn.predecessor with
      | Some x when alive t x && Id.in_interval_oo x ~lo:n.id ~hi:succ ->
        n.successor <- x
      | Some _ | None -> ())
    | None -> ());
    let succ = live_successor t n in
    notify t succ n.id;
    (* Refresh the backup list from the (new) successor's list. *)
    match node_opt t succ with
    | Some sn ->
      let chain = succ :: List.filter (alive t) sn.successors in
      let rec take k = function
        | [] -> []
        | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
      in
      n.successors <- take t.successor_list_length chain
    | None -> ()
  end;
  (* Drop a dead predecessor so a live one can be notified in. *)
  match n.predecessor with
  | Some p when not (alive t p) -> n.predecessor <- None
  | Some _ | None -> ()

let fix_fingers_node t n =
  for i = 0 to Id.bits - 1 do
    let target = Id.add_pow2 n.id i in
    match find_successor t ~from:n.id ~key:target with
    | Some (owner, _) -> n.fingers.(i) <- owner
    | None ->
      (* Lookup dead-ended. If the cached finger itself has stopped
         answering, clear it so routing stops considering it; a finger
         that still responds keeps its slot (the dead end was elsewhere
         on the path). *)
      if n.fingers.(i) <> 0 && not (responsive t n.fingers.(i)) then
        n.fingers.(i) <- 0
  done

let live_nodes t =
  Hashtbl.fold (fun _ n acc -> if n.dead then acc else n :: acc) t.nodes []
  |> List.sort (fun a b -> Int.compare a.id b.id)

let m_stabilize_rounds = Obs.Metrics.counter "chord.net.stabilize_rounds"

let stabilize_round t =
  (* A node inside a fault-plane crash window runs no periodic tasks. *)
  Obs.Metrics.incr m_stabilize_rounds;
  let nodes = List.filter (fun n -> responsive t n.id) (live_nodes t) in
  List.iter (stabilize_node t) nodes;
  List.iter (fix_fingers_node t) nodes

let stabilize t ~rounds =
  for _ = 1 to rounds do
    stabilize_round t
  done

let successor t id = live_successor t (node_exn t id)

let successor_list t id =
  let n = node_exn t id in
  let chain = live_successor t n :: n.successors in
  let rec dedup seen = function
    | [] -> []
    | x :: rest ->
      if x = id || List.mem x seen || not (responsive t x) then dedup seen rest
      else x :: dedup (x :: seen) rest
  in
  dedup [] chain

let predecessor t id =
  match (node_exn t id).predecessor with
  | Some p when responsive t p -> Some p
  | Some _ | None -> None

let is_converged t =
  match node_ids t with
  | [] -> true
  | ids ->
    let arr = Array.of_list ids in
    let n = Array.length arr in
    List.for_all
      (fun id ->
        let i =
          let rec find j = if arr.(j) = id then j else find (j + 1) in
          find 0
        in
        let ideal_succ = arr.((i + 1) mod n) in
        let ideal_pred = arr.((i + n - 1) mod n) in
        successor t id = ideal_succ && predecessor t id = Some ideal_pred)
      ids

let to_ring t = Ring.create ~ids:(node_ids t)
