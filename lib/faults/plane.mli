(** Seeded, fully deterministic fault injection for simulated RPCs.

    A plane sits at the message boundary of the query system: each [send]
    decides whether one message is delivered, from a per-message drop
    probability and per-node crash/recover and partition schedules over a
    logical clock ([tick] advances it once per protocol operation). It
    decides delivery only; simulated milliseconds are the timed replay's
    ([Timed]) alone. All randomness comes from one SplitMix64 stream
    created from the seed, so a run replays bit-identically.

    Everything is observable through [Obs] counters ([faults.sends],
    [faults.drops], [faults.unreachable], [faults.partitioned],
    [faults.retries], [faults.timeouts]). With {!no_faults} the plane
    delivers every message. *)

type crash = {
  node : int;  (** the node (Chord id or physical peer id) that crashes *)
  at : int;  (** logical time the node stops responding *)
  recover_at : int option;  (** when it answers again; [None] = never *)
}

type partition_event = {
  groups : int list list;
      (** disjoint reachability groups; nodes listed in no group form one
          implicit "rest" group together *)
  at : int;  (** logical time the network splits *)
  heal_at : int option;  (** when it heals; [None] = until {!heal} *)
}

type spec = {
  drop : float;  (** per-message drop probability *)
  crashes : crash list;  (** scheduled crash/recover windows *)
  partitions : partition_event list;  (** scheduled network partitions *)
}

val no_faults : spec
(** Nothing injected: no drops, no crashes, no partitions. *)

val validate_spec : spec -> unit
(** @raise P2perror.Error ([Invalid_config], context naming the offending
    [faults.*] field) on a drop probability outside [0, 1], crash windows
    that recover before they start, empty partition groups, a node in two
    groups of one event, or partition windows that heal before they
    start. *)

type t

val create : ?spec:spec -> seed:int64 -> unit -> t
(** A fresh plane at logical time 0. @raise P2perror.Error on a bad
    spec. *)

val spec : t -> spec

(** {1 Logical time and crash schedules} *)

val now : t -> int
val tick : t -> unit
(** Advance logical time by one step (call once per protocol operation so
    crash schedules progress deterministically with the workload). *)

val crashed : t -> int -> bool
(** Whether the node is inside a crash window at the current time. *)

val crash : t -> ?recover_at:int -> int -> unit
(** Dynamically crash a node now, optionally recovering at a future time.
    @raise Invalid_argument if [recover_at] is not in the future. *)

val recover : t -> int -> unit
(** Close every crash window the node is currently inside (no-op if it is
    not crashed). *)

(** {1 Network partitions}

    A partition splits the node id space into reachability groups on the
    same logical clock: while a cut is active, a message whose endpoints
    sit in different groups is [Unreachable] — before any PRNG draw, so
    planes without partitions replay bit-identically. Several cuts may
    overlap; endpoints must share a group under every active cut to
    communicate. Blocked sends count on [faults.partitioned]. *)

val partition : t -> int list list -> unit
(** Open a cut now with the given reachability groups (unlisted nodes
    form one implicit "rest" group), healing only via {!heal}.
    @raise P2perror.Error on empty groups or a node in two groups. *)

val heal : t -> unit
(** Close every cut active at the current time, whether scheduled in the
    spec or opened dynamically (no-op when none is active). *)

val partitioned : t -> src:int -> dst:int -> bool
(** Whether an active cut separates the two nodes right now. *)

(** {1 Messages} *)

type outcome =
  | Delivered
  | Dropped  (** lost in flight *)
  | Unreachable  (** destination crashed or across a partition cut *)

val send : t -> src:int -> dst:int -> outcome
(** One message. Draws its drop decision from the plane's stream; a
    crashed or partitioned-away destination is [Unreachable] without
    consuming a draw. *)

val rpc :
  t -> retry:Retry.policy -> src:int -> dst:int -> ?legs:int -> unit -> bool
(** A complete RPC under the retry policy. Each attempt is a request
    that crosses [legs] (default 1) overlay hops: [legs] independent
    {!send} draws, failing at the first lost leg. True when some attempt,
    out of at most [max_attempts], delivers every leg. Each retry draws
    one value from the plane's stream. Retries and failed RPCs are
    counted on [faults.retries] / [faults.timeouts].
    @raise Invalid_argument if [legs < 1]. *)
