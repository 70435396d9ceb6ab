(** The three locality-sensitive hash function families evaluated in §5.1.

    A function drawn from any family is a permutation [π] of a 32-bit
    domain; the hash of a value set [Q] is [min π(Q)] (§3.3), so
    [Pr(h(Q) = h(R)) ≈ Jaccard(Q, R)]. The value sets hashed here are
    always contiguous ranges ({!minhash_range}). *)

type kind =
  | Exact_minwise  (** full bit-shuffle network of Fig. 3 (all levels) *)
  | Approx_minwise  (** first iteration only — Fig. 3(a) *)
  | Linear  (** [ax + b mod p] *)
  | Random_tabulated
      (** a uniformly random permutation of the value universe, stored as a
          table — {e exactly} min-wise independent. Not in the paper; used
          as the ground-truth family in tests and ablations, quantifying how
          far the practical families fall from the ideal. Requires
          [universe]. *)

val all_kinds : kind list
(** The paper's three families, in its presentation order: exact,
    approximate, linear ([Random_tabulated] is excluded — it is this
    repository's reference baseline, not a paper family). *)

val kind_name : kind -> string
(** ["min-wise"], ["approx-min-wise"], ["linear"], ["random-tabulated"]. *)

val kind_of_name : string -> kind option

type fn
(** One hash function: a permutation plus its min-hash behaviour. *)

val create : ?universe:int -> kind -> Prng.Splitmix.t -> fn
(** [universe] is the size of the value universe being hashed and only
    affects the [Linear] family, whose permutation acts on [\[0, p)] with
    [p] the smallest prime [>= universe] (default: the largest prime below
    2{^32}). The bit-shuffle families always permute the full 32-bit space.
    @raise Invalid_argument if [universe < 2]. *)

val kind_of_fn : fn -> kind

val apply : fn -> int -> int
(** Permute a single domain value (in [\[0, 2{^32} - 5)], which covers the
    linear family's prime field and the 32-bit families alike). *)

val minhash_range : fn -> Rangeset.Range.t -> int
(** [min { apply fn v : v ∈ range }]. Bit networks use
    {!Bit_perm.range_min}: the range's aligned blocks, at most 33 table
    evaluations whatever its size, and no allocation. The linear and
    tabulated families iterate over the range's values. The paper's
    Figure 5 cost is the bit networks evaluated level by level at every
    value ({!Bit_perm.apply_reference}).
    @raise Invalid_argument if the range leaves the function's domain. *)
