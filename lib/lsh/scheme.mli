(** (k, l) amplification of a min-hash family (§4).

    A scheme holds [l] groups of [k] independently drawn hash functions.
    The identifier of a range under group [g] is the XOR of the [k] min-hash
    values — exactly the paper's pseudocode ([identifier\[l\] ^= h\[i\](Q)]).
    Two ranges with Jaccard similarity [p] then share a given group
    identifier with probability ≈ [p{^k}], and share at least one of the
    [l] identifiers with probability ≈ [1 - (1 - p{^k}){^l}].

    The paper fixes [(k, l) = (20, 5)], tuned so the acceptance curve
    approximates a step at [p = 0.9]. *)

type t

type combine =
  | Xor  (** the paper's pseudocode: [identifier ^= h_i(Q)] *)
  | Sum_mod  (** ablation alternative: sum modulo 2{^32} *)

val create :
  ?universe:int ->
  ?combine:combine ->
  Family.kind ->
  k:int ->
  l:int ->
  Prng.Splitmix.t ->
  t
(** @raise Invalid_argument unless [k >= 1] and [l >= 1]. [universe] is
    passed to {!Family.create} (it matters only to the [Linear] family);
    [combine] (default [Xor]) selects how a group's [k] min-hashes fold
    into one identifier. *)

val default : ?universe:int -> Family.kind -> Prng.Splitmix.t -> t
(** [(k, l) = (20, 5)], the paper's setting. *)

val k : t -> int
val l : t -> int
val kind : t -> Family.kind
val combining : t -> combine

val functions : t -> Family.fn array array
(** [l] rows of [k] functions — exposed for the domain cache. *)

val identifiers_of_range : t -> Rangeset.Range.t -> int list
(** The [l] 32-bit group identifiers of a contiguous range, by direct
    evaluation of all [l·k] min-hashes with {!Family.minhash_range} (cost
    grows linearly in the range width for the linear family only). *)

val identifiers_of_set : t -> Rangeset.Range_set.t -> int list
(** Same for a general non-empty value set. *)

val amplification : k:int -> l:int -> float -> float
(** [amplification ~k ~l p = 1 - (1 - p{^k}){^l}] — the probability that two
    sets with Jaccard similarity [p] agree on at least one group. *)

val to_string : t -> string
(** One-line wire encoding of the whole scheme (parameters plus every
    function's key material). Peers of one deployment must share the exact
    scheme — identifiers only collide across peers that hash identically —
    so the bootstrap peer generates it once and ships this string.
    @raise Invalid_argument for [Random_tabulated] schemes (not portable;
    share a seed instead). *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}. The reconstructed scheme computes bit-for-bit
    identical identifiers. *)
