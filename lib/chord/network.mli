(** The dynamic Chord protocol: joins, abrupt failures, stabilization.

    {!Ring} models a converged network; this module simulates how a network
    *gets* converged — the join / stabilize / notify / fix-fingers protocol
    of the Chord paper, plus successor lists for fault tolerance. It backs
    the churn example and the protocol test-suite. All "RPCs" are direct
    in-process calls on the simulated nodes.

    A {!Faults.Plane.t} can be attached (at {!create} or later via
    {!set_faults}): every lookup hop then becomes a retried RPC under the
    plane's drop/crash/laggard model, stabilize/notify traffic becomes
    unretried messages that can be lost, and routing falls back from
    unreachable fingers to successor-list hops (counted on
    [chord.net.fallback_hops]). Without a plane, behavior is bit-identical
    to a fault-free build. *)

type t

val create :
  ?successor_list_length:int ->
  ?faults:Faults.Plane.t ->
  ?retry:Faults.Retry.policy ->
  unit ->
  t
(** An empty network. [successor_list_length] (default 8) bounds how many
    consecutive node failures routing can survive. [faults] attaches a
    fault plane to every message boundary; [retry] (default
    {!Faults.Retry.default}) governs lookup-hop RPCs and is ignored
    without a plane. *)

val set_faults : t -> ?retry:Faults.Retry.policy -> Faults.Plane.t -> unit
(** Attach (or replace) the fault plane on a running network. *)

val clear_faults : t -> unit
(** Detach the fault plane; subsequent operations are fault-free. *)

val faults : t -> Faults.Plane.t option

val add_first : t -> Id.t -> unit
(** Bootstraps the network with its first node (its own successor).
    @raise Invalid_argument if the network is non-empty or the id is taken. *)

val join : t -> Id.t -> via:Id.t -> unit
(** [join t id ~via] adds a node that finds its place by asking the existing
    node [via]. The new node is reachable after stabilization rounds.
    A {!fail}ed node rejoins the same way: its old state is replaced by a
    fresh one (successor routed through [via], no predecessor, empty
    fingers), which later stabilization rounds repopulate.
    @raise Invalid_argument if [id] is taken by a live node, [via] is
    unknown/dead, or bootstrap routing dead-ends. *)

val fail : t -> Id.t -> unit
(** Abrupt departure: the node stops responding; no goodbye messages.
    Peers repair their state in subsequent {!stabilize} rounds. *)

val alive : t -> Id.t -> bool

val responsive : t -> Id.t -> bool
(** Alive and not inside a fault-plane crash window. Identical to
    {!alive} when no plane is attached. *)

val size : t -> int
(** Number of live nodes. *)

val node_ids : t -> Id.t list
(** Live node identifiers, ascending. *)

val successor : t -> Id.t -> Id.t
(** Current successor pointer of a live node (may be stale mid-churn). *)

val predecessor : t -> Id.t -> Id.t option

val successor_list : t -> Id.t -> Id.t list
(** The node's current backup successor list: live, distinct nodes,
    nearest first, never including the node itself. Empty for a
    single-node network; possibly stale mid-churn (refreshed by
    {!stabilize_round}). @raise Invalid_argument for unknown/dead nodes. *)

val stabilize_round : t -> unit
(** One pass: every live node runs [stabilize] (verify successor via its
    predecessor pointer, adopt closer successors, refresh the successor
    list, skip dead successors) and [fix_fingers]. *)

val stabilize : t -> rounds:int -> unit

val is_converged : t -> bool
(** True when every live node's successor and predecessor agree with the
    ideal ring over the live membership. *)

val find_successor : t -> from:Id.t -> key:Id.t -> (Id.t * int) option
(** Routes like {!Ring.lookup} but over the *current* (possibly stale)
    pointers, skipping dead fingers. Returns the reached owner and hop
    count, or [None] if routing dead-ends (possible mid-churn). *)

val to_ring : t -> Ring.t
(** Snapshot of the live membership as a converged {!Ring} (independent of
    the nodes' possibly-stale pointers). *)
