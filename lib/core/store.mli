(** A peer's partition store: hash buckets of cached range partitions.

    The peer owning identifier [i] keeps a bucket of every range partition
    published under [i]; a lookup for [i] scans that bucket for the best
    match (§4). Entries carry the range that defines the partition and,
    optionally, the materialized tuples (the quality experiments track only
    ranges; the full-system examples ship real {!Relational.Partition}s).

    The paper lets caches grow without bound; real peers cannot, so stores
    optionally enforce a capacity with LRU or FIFO eviction — an extension
    ablated in the bench ([ablation-eviction]). *)

type entry = {
  range : Rangeset.Range.t;
  partition : Relational.Partition.t option;
}

(** Capacity policy for one peer's store. *)
type policy =
  | Unbounded  (** the paper's setting: cache everything forever *)
  | Lru of int
      (** keep at most [n] entries; evict the least recently *matched*
          entry (reading a bucket refreshes its entries) *)
  | Fifo of int  (** keep at most [n] entries; evict the oldest insertion *)

type t

val create : ?policy:policy -> unit -> t
(** Default [Unbounded]. @raise Invalid_argument on a capacity < 1. The
    store allocates its bucket table on the first {!insert}; until then it
    is a 3-word record, and no read below allocates one. *)

val policy : t -> policy

val insert : t -> identifier:Chord.Id.t -> entry -> bool
(** Idempotent per (identifier, range): re-inserting an already-present
    range leaves the bucket unchanged (the paper caches a range only "if it
    is not already stored"). May trigger an eviction first when the store
    is at capacity. True when it inserted; one scan of the bucket either
    way. *)

val fold_bucket :
  t -> identifier:Chord.Id.t -> ('a -> entry -> 'a) -> 'a -> 'a
(** Folds over the entries under one identifier, newest first, without
    copying the bucket — the serve path's read. Under [Lru] this counts as
    a use of every entry: once the store has been written to, its clock
    ticks once per call, even on an empty bucket, and each entry takes the
    new stamp. A store never written to has no clock yet; reading it
    changes nothing, and since stamps only order entries within one
    store, eviction order is the same as if the clock had ticked. *)

val peek_bucket : t -> identifier:Chord.Id.t -> entry list
(** The entries under one identifier, newest first; empty if none. Never
    refreshes LRU stamps — for maintenance reads (replica copying,
    debugging) that must not perturb eviction order. *)

val remove_bucket : t -> identifier:Chord.Id.t -> int
(** Drops every entry under one identifier (a replica shedding a bucket it
    no longer serves); returns how many entries were removed. Removed
    entries do {e not} count as evictions. *)

val identifiers : t -> Chord.Id.t list
(** Identifiers of every non-empty bucket, sorted ascending — a
    deterministic iteration order for maintenance sweeps (range
    migration walks this to find buckets inside a migrated slice). Does
    not refresh LRU stamps. *)

val all_entries : t -> entry list
(** Every entry in every bucket this peer holds — what the §5.3 per-peer
    index searches. Entries stored under several identifiers appear once
    per identifier. Does not refresh LRU stamps. *)

val bucket_count : t -> int
val entry_count : t -> int
(** Total entries across buckets (the per-node load of Figure 11). *)

val evictions : t -> int
(** How many entries capacity enforcement has dropped so far. *)

val mem : t -> identifier:Chord.Id.t -> range:Rangeset.Range.t -> bool
