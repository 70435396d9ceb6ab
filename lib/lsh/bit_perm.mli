(** Min-wise independent permutations built from the recursive bit-shuffle
    network of the paper's Figure 3.

    A permutation of [w]-bit integers is described by one key per level:
    level 0 holds a [w]-bit key with exactly [w/2] one-bits, level 1 a
    [w/2]-bit key with [w/4] one-bits, and so on down to 2-bit blocks. At
    each level every block of the current width is rearranged by its key:
    the bits of the block sitting at the key's one-positions move (in order)
    to the block's upper half, the remaining bits (in order) to the lower
    half. Composing all [log2 w - 1] levels yields a permutation of
    [{0, …, 2{^w} - 1}].

    The paper uses [w = 32]; the full network is its "min-wise independent
    permutations", and the level-0-only variant is its computationally
    cheaper "approximate min-wise independent permutations".

    No level looks at the bits it moves, so the composed network is one
    fixed permutation of the [w] bit positions. {!random} and {!of_keys}
    compile it once: they run the network on each one-bit input and store
    the images as 8 tables of 16 entries, indexed by the input's nibbles
    (about 130 words per permutation). {!apply} ORs 8 table lookups, so
    the exact and approximate variants cost the same. The level-by-level
    evaluation stays available as {!apply_reference}. *)

type t

val bits : t -> int
(** Word width [w] of the permuted domain. *)

val levels : t -> int
(** Number of shuffle levels actually applied. *)

val random : ?bits:int -> ?levels:int -> Prng.Splitmix.t -> t
(** [random rng] draws the per-level keys uniformly among keys with exactly
    half their bits set. [bits] defaults to 32 and must be one of
    [{2, 4, 8, 16, 32}]. [levels] caps how many levels are applied: the default
    [log2 bits - 1] gives the full network; [levels = 1] gives the paper's
    approximate variant. @raise Invalid_argument on bad arguments. *)

val apply : t -> int -> int
(** [apply t x] permutes [x] with the compiled tables.
    @raise Invalid_argument unless [x] is in [\[0, 2{^bits})]. *)

val apply_reference : t -> int -> int
(** [apply_reference t x] is [apply t x] computed by walking the network
    level by level, one bit at a time, as Figure 3 draws it. This is the
    per-value cost the paper's Figure 5 plots, and the oracle the compiled
    tables are tested against. Same domain check as {!apply}. *)

val range_min : t -> lo:int -> hi:int -> int
(** [range_min t ~lo ~hi] is [min { apply t x : lo <= x <= hi }]. Every
    value of an aligned block [\[b, b + 2{^m})] is a bitwise superset of
    [b], so [apply t b] is the block's minimum; the kernel evaluates only
    the bases of the aligned blocks that climb from [lo] until one reaches
    [hi], at most [bits + 1] of them, whatever the range's size. It
    allocates nothing.
    @raise Invalid_argument if [lo] or [hi] is outside the domain (with
    {!apply}'s message), or if [hi < lo]. *)

val of_keys : bits:int -> int array -> t
(** Builds the permutation whose level [i] is driven by [keys.(i)]
    (level 0 first), so a known network can be written down directly.
    @raise Invalid_argument if a key has the wrong popcount or width. *)
