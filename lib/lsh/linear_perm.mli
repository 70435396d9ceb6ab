(** Linear permutations [π(x) = (a·x + b) mod p], [a ≠ 0].

    The cheap hash family of Broder et al. that the paper evaluates as an
    alternative to the full bit-shuffle network. Following the min-wise
    construction, the permutation acts on the *universe being hashed*: [p]
    is a prime at least the universe size (for the paper's quality
    experiments the attribute domain [\[0, 1000\]], so [p = 1009]). Over the
    prime field this is an exact permutation of [\[0, p)]; it is only
    {e approximately} min-wise independent — and over a small field the min
    over a contiguous range is highly structured — which is why the paper
    observes much weaker near-match quality from this family than from the
    bit-shuffle networks. *)

type t

val default_p : int
(** 4294967291, the largest prime below 2{^32} — used when no universe is
    specified, making the permuted values full-width ring identifiers. *)

val next_prime : int -> int
(** Smallest prime [>= n] (trial division; intended for [n < 2{^32}]).
    @raise Invalid_argument if [n < 2]. *)

val random : ?p:int -> Prng.Splitmix.t -> t
(** Draws [a] uniformly from [\[1, p)] and [b] from [\[0, p)].
    @raise Invalid_argument if [p] is given and is not at least 2. [p] is
    trusted to be prime (use {!next_prime}); a composite [p] silently breaks
    the permutation property. *)

val make : p:int -> a:int -> b:int -> t
(** @raise Invalid_argument if [a] is 0 mod [p] or either is negative. *)

val apply : t -> int -> int
(** [apply t x] for [x] in [\[0, p)]. All arithmetic is exact (no 63-bit
    overflow) via 16-bit limb splitting. *)
