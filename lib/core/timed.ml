type latency_model = { hop_ms : float; jitter_ms : float; service_ms : float }

let default_latency = { hop_ms = 10.0; jitter_ms = 5.0; service_ms = 2.0 }

(* One submitted query: its lookups still unanswered, and its latest
   reply so far with the serve index of the lookup that sent it. *)
type query = {
  submitted : float;
  mutable outstanding : int;
  mutable finish : float;
  mutable decided_by : int;
}

(* One lookup reaching its owner. *)
type arrival = { time : float; owner : int; query : query }

type t = {
  system : System.t;
  latency : latency_model;
  rng : Prng.Splitmix.t;
  mutable pending : arrival list; (* reversed submission order *)
  mutable clock : float; (* the latest replayed instant *)
  (* FIFO servers: when each peer becomes free, keyed by peer id. *)
  busy_until : (int, float) Hashtbl.t;
  service_total : (int, float) Hashtbl.t;
  mutable completed : (float * float) list; (* reversed *)
}

let create ?(latency = default_latency) ~system ~seed () =
  {
    system;
    latency;
    rng = Prng.Splitmix.create seed;
    pending = [];
    clock = 0.0;
    busy_until = Hashtbl.create 64;
    service_total = Hashtbl.create 64;
    completed = [];
  }

let message_delay t =
  t.latency.hop_ms +. (Prng.Splitmix.float t.rng *. t.latency.jitter_ms)

(* Travel time of a request routed over [hops] overlay links. A 0-hop
   lookup (the requester owns the identifier) costs nothing on the wire. *)
let route_delay t hops =
  let sum = ref 0.0 in
  for _ = 1 to hops do
    sum := !sum +. message_delay t
  done;
  !sum

let submit t ~at ~from range =
  if at < t.clock then invalid_arg "Timed.submit: at is before the replayed end";
  (* Match and cache instantly — identical outcomes to the untimed
     protocol — then record the lookups' arrivals for [run] to replay. *)
  let result = System.query t.system ~from range in
  let lookups =
    List.combine result.Query_result.stats.Query_result.identifiers
      result.Query_result.stats.Query_result.hops
  in
  let query =
    { submitted = at; outstanding = List.length lookups; finish = at; decided_by = 0 }
  in
  List.iter
    (fun (identifier, hops) ->
      let owner = Peer.id (System.owner_of_identifier t.system identifier) in
      let time = at +. route_delay t hops in
      t.pending <- { time; owner; query } :: t.pending)
    lookups

let run t =
  (* Owners serve in arrival order, ties in submission order. *)
  let arrivals =
    List.stable_sort
      (fun a b -> Float.compare a.time b.time)
      (List.rev t.pending)
  in
  t.pending <- [];
  let finished = ref [] in
  List.iteri
    (fun served { time; owner; query } ->
      (* FIFO service at the owner, then a direct reply to the requester. *)
      let free = Option.value (Hashtbl.find_opt t.busy_until owner) ~default:0.0 in
      let done_at = Float.max free time +. t.latency.service_ms in
      Hashtbl.replace t.busy_until owner done_at;
      Hashtbl.replace t.service_total owner
        (t.latency.service_ms
        +. Option.value (Hashtbl.find_opt t.service_total owner) ~default:0.0);
      let reply_at = done_at +. message_delay t in
      t.clock <- Float.max t.clock reply_at;
      if reply_at >= query.finish then begin
        query.finish <- reply_at;
        query.decided_by <- served
      end;
      query.outstanding <- query.outstanding - 1;
      if query.outstanding = 0 then finished := query :: !finished)
    arrivals;
  (* A query completes at its latest reply; simultaneous completions keep
     the order in which their deciding lookups were served. *)
  List.sort
    (fun a b ->
      match Float.compare a.finish b.finish with
      | 0 -> Int.compare a.decided_by b.decided_by
      | c -> c)
    !finished
  |> List.iter (fun q ->
         t.completed <- (q.submitted, q.finish -. q.submitted) :: t.completed)

let completed t = List.rev t.completed

let busiest_peer t =
  Hashtbl.fold
    (fun id total acc ->
      match acc with
      | Some (_, best) when best >= total -> acc
      | Some _ | None -> Some (Peer.name (System.peer_by_id t.system id), total))
    t.service_total None

let utilization t ~horizon_ms =
  if horizon_ms <= 0.0 then invalid_arg "Timed.utilization: bad horizon";
  Hashtbl.fold (fun _ total acc -> Float.max acc (total /. horizon_ms)) t.service_total 0.0
