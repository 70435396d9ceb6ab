(** Timed replay of the query protocol: the library's one model of simulated
    milliseconds (the fault plane decides delivery only).

    {!System} counts hops and messages; this module turns them into
    latencies. Each identifier lookup is modelled as [hops] sequential
    message deliveries (base latency + uniform jitter per hop), then a
    service job in the owner peer's FIFO queue, then one reply message back
    to the requester; a query completes when the slowest of its [l] lookups
    replies. Store evolution is delegated to {!System.query} at submission
    time, so match results equal the untimed protocol's exactly.

    Arrivals are replayed by one stable sort: owners serve them in time
    order, simultaneous arrivals in submission order, and reply jitter is
    drawn in that serving order.

    The point of modelling per-peer queues: identifier clustering makes a
    few peers serve nearly all lookups, so under load the cluster owners
    saturate and tail latency explodes — the time-domain face of the
    Figure 11 imbalance (bench section [ablation-latency]). *)

type latency_model = {
  hop_ms : float;  (** base one-way per-message network latency *)
  jitter_ms : float;  (** uniform extra latency in [\[0, jitter_ms\]] per message *)
  service_ms : float;  (** owner processing time per lookup (FIFO per peer) *)
}

val default_latency : latency_model
(** 10 ms hops, 5 ms jitter, 2 ms service — LAN-ish WAN numbers. *)

type t

val create : ?latency:latency_model -> system:System.t -> seed:int64 -> unit -> t
(** Wraps a system. The seed drives jitter only. *)

val submit : t -> at:float -> from:Peer.t -> Rangeset.Range.t -> unit
(** Records one query's lookup arrivals, starting at simulated time [at]
    (ms), and runs the cache-updating match via {!System.query}
    immediately.
    @raise Invalid_argument, before running the query, if [at] is earlier
    than the latest instant a {!run} has replayed. *)

val run : t -> unit
(** Replays every arrival submitted since the last run. *)

val completed : t -> (float * float) list
(** [(submit_time, latency_ms)] per finished query, in completion order:
    by finish time, ties in the order their deciding lookups were
    served. *)

val busiest_peer : t -> (string * float) option
(** The peer with the most accumulated service time, and that time (ms) —
    the saturation indicator. *)

val utilization : t -> horizon_ms:float -> float
(** Max over peers of (accumulated service time / horizon) — > 1 means some
    peer received more work than wall-clock time to do it. *)
