(** SplitMix64 pseudo-random number generator.

    A small, fast, deterministic PRNG with 64-bit state, used everywhere in
    this repository so that experiments are exactly reproducible from a seed.
    The algorithm is the public-domain SplitMix64 of Steele, Lea & Flood
    (OOPSLA 2014); it passes BigCrush and is the standard seeding generator
    for the xoshiro family. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Distinct seeds give independent
    streams for all practical purposes. *)

val copy : t -> t
(** [copy t] is a generator with the same state that evolves independently. *)

val next_int64 : t -> int64
(** [next_int64 t] returns the next 64-bit output and advances the state. *)

val next_int63 : t -> int
(** [next_int63 t] returns a uniform non-negative OCaml [int] (63 bits). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. Uses rejection sampling, so the result is exactly uniform. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** A fair coin flip. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t]. Useful to hand sub-streams to sub-components. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle driven by [t]. *)

val sample_distinct : t -> int -> lo:int -> hi:int -> int list
(** [sample_distinct t n ~lo ~hi] draws [n] distinct integers uniformly from
    the inclusive range [\[lo, hi\]], in increasing order.
    @raise Invalid_argument if the range holds fewer than [n] values. *)
