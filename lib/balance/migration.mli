(** Deterministic range-migration planner.

    Replication (see {!Replicas}) answers skewed load by multiplying hot
    buckets; migration answers it by {e moving} them: an overloaded peer
    hands a contiguous slice of its ring segment to the least-loaded live
    peer, after Chawachat & Fakcharoenphol's migration-based balancing
    for range-partitioned P2P systems (arXiv:1210.7954).

    The planner is windowed and threshold-based. Serves are charged to a
    {e round} via {!note_serve}, to both the serving peer and the served
    segment; every [check_every] ticks the round closes and at most one
    migration is planned: among responsive peers whose round load
    reaches [overload ×] the mean (and at least [min_share]), the
    most-loaded one that can still shed splits its busiest splittable
    segment at the midpoint and hands the hotter half (judged by the
    caller-supplied windowed identifier scores, i.e.
    {!Tracker.windowed_scores}) to the least-loaded responsive peer.
    Each ring position's interval is kept as a partition of contiguous
    segments with per-segment holders, and a received slice is just a
    segment held away from its native owner — so slices re-split under
    continued load exactly like native remainders, letting a hot region
    spread across several peers over successive rounds instead of
    deadlocking on its first holder. Candidates with nothing splittable
    are skipped rather than allowed to starve the round.
    Both parties then sit out [cooldown] rounds — the hysteresis that
    prevents a slice from ping-ponging between two peers.

    Everything is planned on the logical clock with {b no randomness}:
    peers are scanned in the caller's creation order and ties break
    positionally, so seeded runs replay byte-identically and enabling
    migration perturbs no PRNG stream.

    The module only plans and remembers slice ownership; the caller
    (e.g. {!System}) executes the move, redirects lookups via {!holder},
    and decides fallbacks when a slice's holder is unresponsive. *)

type spec = {
  check_every : int;  (** ticks (queries) per balancing round *)
  overload : float;  (** trigger at [overload ×] mean round load, > 1.0 *)
  cooldown : int;  (** rounds both parties sit out after a migration *)
  min_share : int;  (** minimum round load to be judged overloaded *)
}

val validate_spec : spec -> unit
(** @raise Invalid_argument on [check_every < 1], [overload <= 1.0] or
    non-finite, [cooldown < 0], or [min_share < 1]. *)

type move = {
  position : Chord.Id.t;  (** ring position whose segment was split *)
  source : int;  (** peer shedding the slice *)
  target : int;  (** peer receiving it *)
  lo : Chord.Id.t;
  hi : Chord.Id.t;  (** the migrated slice, circular [(lo, hi\]] *)
}

type t

val create : spec -> t
(** @raise Invalid_argument like {!validate_spec}. *)

val holder : t -> position:Chord.Id.t -> identifier:Chord.Id.t -> int option
(** The peer a lookup for [identifier], routed to ring position
    [position], has been migrated to — [None] when the identifier is
    still held by the position's own peer. *)

val note_serve :
  t -> position:Chord.Id.t -> identifier:Chord.Id.t -> peer:int -> unit
(** Charge one served lookup to the current round: to [peer] (the id of
    the peer that answered) for overload detection, and to the
    segment of [position] containing [identifier] for choosing what an
    overloaded holder sheds. *)

val tick :
  t ->
  peers:int list ->
  responsive:(int -> bool) ->
  predecessor:(Chord.Id.t -> Chord.Id.t) ->
  scores:(unit -> (Chord.Id.t * int) list) ->
  move option
(** Advance the logical clock by one query. Every [check_every] ticks a
    balancing round runs over [peers] (peer ids, which are also their
    ring positions, in creation order — the deterministic tie-break
    order), consulting [responsive] for liveness, [predecessor] for
    initial segment bounds, and [scores] for windowed identifier scores.
    Returns the move planned this round, which the caller must execute
    (copy the slice's buckets to [move.target]); the planner has already
    recorded the new slice ownership. *)

val migrations : t -> int
(** Migrations planned so far. *)

val rounds : t -> int
(** Balancing rounds run so far. *)

val slice_count : t -> int
(** Live migrated slices across all positions. *)

val split_positions : t -> Chord.Id.t list
(** Ring positions whose interval has been split at least once, sorted
    ascending — the positions {!segments} is non-empty for. *)

val segments : t -> position:Chord.Id.t -> (Chord.Id.t * Chord.Id.t * int) list
(** The [(lo, hi, holder)] segments of a split position, in the planner's
    internal order; they always tile the position's circular
    [(predecessor, position]] interval exactly (the invariant
    [System.check_invariants] verifies). [[]] for untouched positions. *)
