(** The assembled P2P range-selection system (§4).

    A system is a converged Chord ring of peers, an LSH scheme shared by all
    of them, and the query/publish protocol of the paper's pseudocode:

    + hash the (possibly padded) query range to [l] 32-bit identifiers;
    + route each identifier to its owner peer over Chord, counting hops;
    + each owner returns the best match from the identifier's bucket (or
      from its whole store in per-peer-index mode);
    + the querying peer keeps the best reply; if no reply matches the range
      exactly, the queried range is cached at all [l] owners.

    Each peer sits at one ring position, the SHA-1 of its name, which is
    its {!Peer.id}. Optional load-balancing extensions ride on top (see
    {!Config.balancing}): hot buckets are replicated onto the owner's ring
    successors and lookups served by the least-loaded live holder
    (failing over when the owner is down, see {!fail_peer}); overloaded
    peers migrate contiguous slices of their ring segment to the
    least-loaded live peer, after which lookups and publishes for the
    slice redirect to its holder (falling back to the native owner while
    the holder is unresponsive; see {!repair} for how such writes reach
    the holder later). Both are off by default, in which case query
    results are bit-identical to builds without them.

    Everything is deterministic given the seed. *)

type t

val create : ?config:Config.t -> seed:int64 -> n_peers:int -> unit -> t
(** Builds a system of [n_peers] peers named ["peer-0" …] (ring positions
    from SHA-1 of the names). @raise Error.Error on a bad config
    ([Invalid_config]) or a ring that cannot be built ([Invalid_topology]:
    [n_peers <= 0], no names, position collision). *)

val create_with_peers : ?config:Config.t -> seed:int64 -> string list -> t
(** Same with explicit peer names. *)

val config : t -> Config.t

val routing : t -> Routing.t
(** The system's routing substrate ({!Config.t.substrate} made
    first-class): Chord fingers or the learned index. *)

val ring : t -> Chord.Ring.t
(** The converged ring underlying whichever substrate is selected. *)

val lookup_position : t -> from:Peer.t -> key:Chord.Id.t -> Chord.Id.t * int
(** One substrate lookup from [from] to the owner of [key]: the routed
    ring position and the overlay hops it took. *)

val peers : t -> Peer.t list
val peer_count : t -> int

val peer_by_id : t -> Chord.Id.t -> Peer.t
(** The peer occupying a ring position, i.e. the peer with that
    {!Peer.id}. @raise Not_found for identifiers that are not positions. *)

val peer_by_name : t -> string -> Peer.t
(** @raise Not_found for unknown names. *)

val random_peer : t -> Prng.Splitmix.t -> Peer.t

val owner_of_identifier : t -> Chord.Id.t -> Peer.t
(** The peer whose ring segment covers an identifier. *)

val identifiers : t -> Rangeset.Range.t -> Chord.Id.t list
(** The [l] group identifiers of a range under this system's scheme (via
    the LRU signature memo when {!Config.t.signature_cache} is positive,
    then the precomputed domain cache when enabled and applicable). *)

val signature_cache : t -> Lsh.Sig_cache.t option
(** The system's signature memo, for inspecting hit/miss/eviction tallies
    ([None] when disabled). *)

val padding_fraction : t -> float
(** Current padding level (moves under adaptive padding). *)

val publish :
  t ->
  from:Peer.t ->
  ?partition:Relational.Partition.t ->
  Rangeset.Range.t ->
  Query_result.lookup_stats
(** Stores a range partition under its [l] identifiers, routing each from
    [from]. Used to seed a system with previously-computed partitions. *)

val query : t -> from:Peer.t -> Rangeset.Range.t -> Query_result.t
(** Executes the full protocol for one range selection, including the
    cache-on-inexact store and adaptive-padding feedback. This is the one
    front door for single queries; batches go through {!query_batch}. *)

val query_batch : t -> from:Peer.t -> Rangeset.Range.t list -> Query_result.t list
(** Executes a batch of range selections from one peer as a single
    pipelined round, one result per range in order. Queries are processed
    sequentially with the full per-query protocol (padding, serving,
    hotness tracking, cache-on-inexact, fault composition), but the
    batch shares the lookup work:

    - signatures replay from the {!Lsh.Sig_cache} memo;
    - an identifier already routed this batch reuses its resolved owner
      ([system.batch.identifier_hits], zero new messages);
    - fresh identifiers route through a {!Chord.Ring.Route_cache}, so
      later walks jump via addresses learned by earlier ones;
    - all lookups served by one peer share a single request/reply pair
      ([system.batch.coalesced_contacts]) — one retried contact per
      distinct serving peer per round under a fault plane.

    Per-result [stats.messages] charges each query only the traffic it
    newly caused, so the batch total is their sum. A batch of size 1 is
    bit-identical to {!query}; on fault-free runs, batching never changes
    matches or recall, only the message count. *)

(** {1 Failures, faults and load balance} *)

val fail_peer : t -> Peer.t -> unit
(** Marks a peer failed: it stops answering lookups. Routing still
    reaches its ring segment — the static ring models converged fingers —
    but the data there is only served if replication placed a copy on a
    live successor (or, with {!Config.t.hinted_handoff}, a hint holder
    took it). A failed slice holder's writes fall back to the slice's
    native owner. Reversible with {!recover_peer}. The substrate is notified (the learned model marks
    the covering segments stale). @raise Error.Error ([Unknown_peer])
    for peers of another system. *)

val recover_peer : t -> Peer.t -> unit
(** Brings a {!fail_peer}ed peer back: it resumes answering lookups with
    whatever its store held when it failed (the substrate counts the
    recovery as churn too). With {!Config.t.hinted_handoff} on, recovery
    also runs {!repair}, so publishes the peer missed while down replay
    home. @raise Error.Error ([Unknown_peer]) for peers of another
    system. *)

val repair : t -> unit
(** Anti-entropy reconciliation after faults heal: replays every parked
    hint whose home peer is responsive again into the home bucket
    (clearing the holder unless it doubles as a registered replica), then
    re-syncs every registered replica set from its responsive home peer —
    so replicas that missed inserts while crashed stop serving stale
    buckets and recall returns to its fault-free level. Hints come from
    two places: a publish whose home was down parks at the owner's first
    live successor, and a write that fell back to the native owner
    because the slice holder was down registers that owner. A hint's home
    is the identifier's slice holder whenever a migration moved it, even
    while the holder is down, so such a hint waits for the holder instead
    of replaying onto the owner that took it. Deterministic and
    PRNG-free: identifiers in sorted order, bucket entries oldest-first.
    Run it explicitly after healing a fault-plane partition
    ({!Faults.Plane.heal} cannot see the system); {!recover_peer} runs it
    automatically. A no-op unless {!Config.t.hinted_handoff} is on.
    Counted on [system.repairs] / [system.hints_replayed] /
    [balance.replica_resyncs]. *)

val parked_hints : t -> int
(** Identifiers with at least one hint currently parked at a successor
    (0 unless {!Config.t.hinted_handoff} is on). *)

val check_invariants : t -> string list
(** Whole-system consistency audit, read-only and PRNG-free; one
    human-readable line per violation, [[]] when healthy. Verifies:

    + {b ring structure} — node positions strictly ascending and
      distinct, the successor chain consistent, every position
      self-owned with a peer behind it;
    + {b data reachability} — every bucket stored anywhere is servable
      from its home (owner or migration holder), a responsive registered
      replica, or a responsive hint holder;
    + {b replica sets} — known, duplicate-free positions on alive peers,
      never the identifier's own home peer;
    + {b migration segments} — each split position's segments tile its
      circular [(predecessor, position]] interval exactly (no gap,
      overlap, or leftover).

    Surfaced as a CLI by [bin/doctor.exe]; the [chaos] bench asserts it
    at every phase boundary. *)

val check_invariants_detailed : t -> Error.t list
(** The same audit with structured findings: each violation is an
    {!Error.t} with code [Broken_invariant], the human-readable line as
    its message, and machine-readable context — the invariant family
    (["invariant" = "ring"/"data"/"replicas"/"migration"]) plus the
    offending position/identifier/peer. Never raised, only returned;
    [bin/doctor.exe --json] renders the list as JSON.
    {!check_invariants} is exactly the message projection of this. *)

val alive : t -> Peer.t -> bool

val responsive : t -> Peer.t -> bool
(** {!alive} and outside any fault-plane crash window; identical to
    [alive] when {!Config.t.faults} is unset. *)

val fault_plane : t -> Faults.Plane.t option
(** The system's fault plane, for scheduling dynamic crashes or reading
    its logical clock ([None] when faults are unset). *)

val tracker : t -> Balance.Tracker.t
(** The system's load tracker: per-peer served-lookup tallies plus
    windowed per-identifier hot scores. Always maintained
    (replication on or off) so imbalance is reportable either way. *)

val load_imbalance : t -> float
(** Max/mean of served lookups over all peers (dead included) — the
    Figure 11 imbalance ratio; 0 before any query. *)

val replicated_buckets : t -> int
(** How many identifiers currently have live replica sets (0 when
    replication is off). *)

val migrated_slices : t -> int
(** Live migrated range slices across all ring positions (0 when
    migration is off). *)

val migrations : t -> int
(** Migrations executed so far (0 when migration is off). *)

val total_entries : t -> int
(** Sum of all peers' stored entries. *)

val total_evictions : t -> int
(** Sum of entries dropped by capacity enforcement across peers (always 0
    under the default unbounded policy). *)
