type crash = { node : int; at : int; recover_at : int option }

type partition_event = { groups : int list list; at : int; heal_at : int option }

type spec = {
  drop : float;
  crashes : crash list;
  partitions : partition_event list;
}

let no_faults = { drop = 0.0; crashes = []; partitions = [] }

(* Validation speaks the structured error type of the public surface
   ([P2prange.Error] re-exports it), with the offending field in the
   context — same convention as [Config.validate]. *)
let reject ~field ~value message =
  P2perror.raise_error
    ~context:[ ("field", field); ("value", value) ]
    P2perror.Invalid_config message

let validate_groups groups =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun group ->
      if group = [] then
        reject ~field:"faults.partitions.groups" ~value:"[]"
          "Faults: partition groups must be non-empty";
      List.iter
        (fun node ->
          if Hashtbl.mem seen node then
            reject ~field:"faults.partitions.groups"
              ~value:(string_of_int node)
              "Faults: a node may appear in at most one partition group";
          Hashtbl.replace seen node ())
        group)
    groups

let validate_spec s =
  if not (s.drop >= 0.0 && s.drop <= 1.0) then
    reject ~field:"faults.drop" ~value:(string_of_float s.drop)
      "Faults: drop must be in [0, 1]";
  List.iter
    (fun (c : crash) ->
      if c.at < 0 then
        reject ~field:"faults.crashes.at" ~value:(string_of_int c.at)
          "Faults: crash time must be non-negative";
      match c.recover_at with
      | Some r when r <= c.at ->
        reject ~field:"faults.crashes.recover_at" ~value:(string_of_int r)
          "Faults: recover_at must be after the crash time"
      | Some _ | None -> ())
    s.crashes;
  List.iter
    (fun p ->
      validate_groups p.groups;
      if p.at < 0 then
        reject ~field:"faults.partitions.at" ~value:(string_of_int p.at)
          "Faults: partition time must be non-negative";
      match p.heal_at with
      | Some h when h <= p.at ->
        reject ~field:"faults.partitions.heal_at" ~value:(string_of_int h)
          "Faults: heal_at must be after the partition time"
      | Some _ | None -> ())
    s.partitions

type t = {
  spec : spec;
  rng : Prng.Splitmix.t;  (* per-message drop draws, one per retry *)
  (* node -> crash windows [at, recover_at); None = never recovers. The
     head is the most recently added window, consulted first so dynamic
     [recover] can close it. *)
  crashes : (int, (int * int option) list) Hashtbl.t;
  (* Partition cuts as windows [at, heal_at) over the same clock, each
     with a node -> group-index membership table (nodes listed in no
     group share the implicit "rest" group). Head = most recently
     added. *)
  mutable cuts : (int * int option * (int, int) Hashtbl.t) list;
  mutable now : int;
}

let m_sends = Obs.Metrics.counter "faults.sends"
let m_drops = Obs.Metrics.counter "faults.drops"
let m_unreachable = Obs.Metrics.counter "faults.unreachable"
let m_partitioned = Obs.Metrics.counter "faults.partitioned"
let m_retries = Obs.Metrics.counter "faults.retries"
let m_timeouts = Obs.Metrics.counter "faults.timeouts"

let membership groups =
  let m = Hashtbl.create 16 in
  List.iteri
    (fun gi group -> List.iter (fun node -> Hashtbl.replace m node gi) group)
    groups;
  m

let create ?(spec = no_faults) ~seed () =
  validate_spec spec;
  let rng = Prng.Splitmix.create seed in
  let crashes = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let existing = Option.value (Hashtbl.find_opt crashes c.node) ~default:[] in
      Hashtbl.replace crashes c.node ((c.at, c.recover_at) :: existing))
    spec.crashes;
  {
    spec;
    rng;
    crashes;
    cuts =
      List.map
        (fun p -> (p.at, p.heal_at, membership p.groups))
        spec.partitions;
    now = 0;
  }

let spec t = t.spec
let now t = t.now
let tick t = t.now <- t.now + 1

let crashed t node =
  match Hashtbl.find_opt t.crashes node with
  | None -> false
  | Some windows ->
    List.exists
      (fun (at, recover_at) ->
        t.now >= at
        && match recover_at with None -> true | Some r -> t.now < r)
      windows

let crash t ?recover_at node =
  (match recover_at with
  | Some r when r <= t.now ->
    invalid_arg "Faults.crash: recover_at must be in the future"
  | Some _ | None -> ());
  let existing = Option.value (Hashtbl.find_opt t.crashes node) ~default:[] in
  Hashtbl.replace t.crashes node ((t.now, recover_at) :: existing);
  Obs.Series.mark_i "faults.crash" "node" node

let window_active t (at, heal_at) =
  t.now >= at && match heal_at with None -> true | Some h -> t.now < h

let group m node = Option.value (Hashtbl.find_opt m node) ~default:(-1)

(* Reachability is a pure function of the clock and the cut tables — no
   PRNG — so with no partitions configured nothing changes: zero draws,
   zero counters, bit-identical streams. *)
let partitioned t ~src ~dst =
  List.exists
    (fun (at, heal_at, m) ->
      window_active t (at, heal_at) && group m src <> group m dst)
    t.cuts

let partition t groups =
  validate_groups groups;
  t.cuts <- (t.now, None, membership groups) :: t.cuts;
  Obs.Series.mark_i "faults.partition" "groups" (List.length groups)

let heal t =
  t.cuts <-
    List.map
      (fun (at, heal_at, m) ->
        if window_active t (at, heal_at) then (at, Some t.now, m)
        else (at, heal_at, m))
      t.cuts;
  Obs.Series.mark "faults.heal"

let recover t node =
  match Hashtbl.find_opt t.crashes node with
  | None -> ()
  | Some windows ->
    let closed =
      List.map
        (fun (at, recover_at) ->
          let active =
            t.now >= at
            && match recover_at with None -> true | Some r -> t.now < r
          in
          if active then (at, Some t.now) else (at, recover_at))
        windows
    in
    Hashtbl.replace t.crashes node closed;
    Obs.Series.mark_i "faults.recover" "node" node

type outcome = Delivered | Dropped | Unreachable

let send t ~src ~dst =
  Obs.Metrics.incr m_sends;
  if crashed t dst then begin
    Obs.Metrics.incr m_unreachable;
    Unreachable
  end
  else if partitioned t ~src ~dst then begin
    (* Checked before any draw, like the crash check: an unreachable
       destination consumes nothing from the per-message stream. *)
    Obs.Metrics.incr m_partitioned;
    Unreachable
  end
  else if Prng.Splitmix.float t.rng < t.spec.drop then begin
    Obs.Metrics.incr m_drops;
    Dropped
  end
  else Delivered

(* A request across [legs] overlay hops: [legs] independent [send] draws,
   failing at the first lost leg. *)
let route_delivered t ~src ~dst ~legs =
  if legs < 1 then invalid_arg "Faults.rpc: legs must be >= 1";
  let rec walk i =
    i > legs
    ||
    match send t ~src ~dst with
    | Delivered -> walk (i + 1)
    | Dropped | Unreachable -> false
  in
  walk 1

let rpc t ~retry ~src ~dst ?(legs = 1) () =
  (* Tracing here must stay out of the PRNG: every draw below happens in
     both the traced and untraced paths, so seeded runs are unchanged. *)
  Obs.Trace.with_span "rpc" (fun () ->
      Obs.Trace.set_int "src" src;
      Obs.Trace.set_int "dst" dst;
      Obs.Trace.set_int "legs" legs;
      let finish i ok =
        if not ok then Obs.Metrics.incr m_timeouts;
        Obs.Trace.set_int "attempts" i;
        Obs.Trace.set_bool "ok" ok;
        ok
      in
      let rec attempt i =
        if route_delivered t ~src ~dst ~legs then finish i true
        else if i >= retry.Retry.max_attempts then finish i false
        else begin
          (* Each retry takes one draw from the stream and discards it.
             The recorded fault runs (bench [faults] and [chaos], the
             churn example, perfbench [churn-rw]) are seeded with this
             draw in the stream: removing it would shift every later drop
             decision and change their answers. *)
          ignore (Prng.Splitmix.float t.rng : float);
          Obs.Trace.event_i "retry" "attempt" i;
          Obs.Metrics.incr m_retries;
          attempt (i + 1)
        end
      in
      attempt 1)
