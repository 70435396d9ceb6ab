(** Windowed load accounting for hot-bucket detection.

    The tracker keeps two kinds of tallies:

    - {b per-peer}: cumulative counts of identifier lookups a peer has
      served ([record_query]) — the raw material of the max/mean
      imbalance ratio that Figure 11 motivates;
    - {b per-identifier}: lookup counts over a sliding pair of windows of
      [window] recorded lookups each. An identifier's {e hot score} is its
      count over the current (partial) plus the previous (full) window, so
      hotness both builds up and decays as the workload shifts.

    Hotness is judged by a {!hot_policy}: an absolute score threshold.
    All state is plain hashtable counting — deterministic,
    allocation-light, and independent of the global {!Obs.Metrics}
    switch (callers mirror what they want into the metrics registry). *)

type hot_policy =
  | Absolute of int  (** hot when the windowed score reaches the threshold *)

type t

val create : ?window:int -> hot_policy -> t
(** [create ?window policy] — [window] (default 1024) is how many recorded
    lookups make up one hotness window. @raise Invalid_argument when
    [window < 1], or on [Absolute n] with [n < 1]. *)

val record_query : t -> peer:int -> identifier:int -> unit
(** One identifier lookup served by [peer]: bumps the peer's cumulative
    load and the identifier's windowed score (rotating the window when
    full). *)

val total_queries : t -> int
(** All lookups ever recorded (not windowed). *)

val peer_load : t -> int -> int
(** Cumulative lookups served by a peer; 0 for unknown peers. *)

val hot_score : t -> int -> int
(** The identifier's count over the current plus previous window. *)

val windowed_scores : t -> (int * int) list
(** Every identifier seen in either window with its combined score,
    sorted by score descending (ties toward smaller identifiers).
    Consumed by the migration planner to decide which half of a range
    slice is hotter. *)

val is_hot : t -> int -> bool

val imbalance : int list -> float
(** [imbalance loads] is max/mean over the whole population (zeros
    included) — the load-imbalance ratio the bench reports. 0 when the
    list is empty or all loads are 0. *)

val load_imbalance : t -> peers:int -> float
(** [imbalance] of [peer_load] over a population of [peers] peers that
    includes every peer ever recorded, in O(1) from running tallies of
    the total and the largest per-peer load. *)
