(** The system-scalability experiments (§5.3, Figures 11–12).

    Following the paper's modified Chord-simulator setup: hash each unique
    query range to [l = 5] identifiers with approximate min-wise
    permutations, place them on converged rings of varying size, and
    measure (a) partitions stored per peer and (b) lookup hop counts.

    Unlike the match-quality experiments (attribute domain [\[0, 1000\]]),
    the scalability workload draws range sets from a {e large} key space —
    [\[0, 2{^24})] by default. This matters: a bit-shuffle permutation of a
    tiny domain produces min-hashes confined to a sliver of the 32-bit
    ring (only ~10 input bits carry entropy), which would degenerately put
    every partition on one peer. With range starts spread over 24 bits the
    identifiers cover the ring, which is the regime the paper's Figure 11
    must have run in (its per-node loads are spread, not collapsed). *)

type workload
(** A set of unique ranges with their precomputed [l] identifiers. Hashing
    a large-domain workload is the expensive step, so one workload is
    built once and shared across ring sizes. *)

val make_workload :
  ?config:Config.t ->
  ?unique_partitions:int ->
  ?max_width:int ->
  seed:int64 ->
  unit ->
  workload
(** Defaults: the paper's 10,000 unique partitions, widths uniform in
    [\[1, max_width\]] (default 200), starts uniform over the config's
    domain (default [\[0, 2{^24})] with approximate min-wise hashing,
    k = 20, l = 5). *)

val workload_size : workload -> int
(** Number of unique partitions. *)

val identifiers : workload -> int list array
(** Each unique partition's [l] identifiers, in workload order (a copy). *)

val truncate : workload -> int -> workload
(** [truncate w n] keeps the first [n] partitions — used to sweep stored
    volume (Fig. 11b) without re-hashing. @raise Invalid_argument if [n]
    exceeds the workload size or is not positive. *)

val stored_count : workload -> int
(** Total stored partitions = unique × l. *)

type load_point = {
  n_nodes : int;
  n_partitions_stored : int;  (** unique ranges × l *)
  per_node : Stats.Summary.t;  (** partitions stored per node, all nodes *)
  empty_nodes : int;  (** nodes storing nothing *)
}

val load_distribution : workload -> n_nodes:int -> seed:int64 -> load_point
(** Figure 11 datapoint: place the workload on a fresh random ring. *)

type path_point = {
  n_nodes : int;
  hops : Stats.Summary.t;  (** per-identifier-lookup overlay hop counts *)
  distribution : Stats.Histogram.t;  (** PDF over hop counts (Fig. 12b) *)
}

val path_lengths :
  workload ->
  ?n_lookups:int ->
  ?substrate:Config.substrate ->
  n_nodes:int ->
  seed:int64 ->
  unit ->
  path_point
(** Figure 12 datapoint: [n_lookups] (default 10,000) queries, each drawn
    from the workload and issued from a uniformly random source node; every
    one of its [l] identifier routes contributes a hop-count sample.
    [substrate] (default [Chord], which replays the paper's figure
    bit-identically) selects who routes: the same ring, sources and keys
    are measured under the chosen substrate, so hop distributions are
    directly comparable. *)
