(** O(1) range-min-hash over a fixed contiguous attribute domain.

    Direct min-hashing costs, per function, one evaluation per value of the
    queried range for the linear family and up to 33 compiled-table
    evaluations for the bit networks ({!Bit_perm.range_min}). The
    quality and scalability experiments, however, issue tens of thousands of
    queries over a small attribute domain (\[0, 1000\]); for those this
    cache precomputes, per hash function, a sparse table of prefix minima of
    the permuted domain so that the min-hash of any contiguous sub-range is
    two array reads. Identifiers computed here are bit-for-bit identical to
    {!Scheme.identifiers_of_range}. *)

type t

val build : Scheme.t -> domain:Rangeset.Range.t -> t
(** Precomputes sparse tables for every function of the scheme; costs
    [O(l·k·d·log d)] time and memory for a domain of [d] values. *)

val scheme : t -> Scheme.t
val domain : t -> Rangeset.Range.t

val identifiers : t -> Rangeset.Range.t -> int list
(** The scheme's [l] identifiers for a query range.
    @raise Invalid_argument if the range is not contained in the domain. *)
