(** Inclusive integer ranges [\[lo, hi\]].

    A range denotes the set of integers it covers; a selection predicate
    [30 <= age <= 50] is the range [{lo = 30; hi = 50}], i.e. the value set
    {30, 31, …, 50}. Ranges are the unit of caching in the paper: a cached
    horizontal partition is identified by the range that produced it. *)

type t = private { lo : int; hi : int }

val make : lo:int -> hi:int -> t
(** @raise Invalid_argument if [hi < lo]. *)

val point : int -> t
(** [point v] is the singleton range [\[v, v\]]. *)

val lo : t -> int
val hi : t -> int

val cardinal : t -> int
(** Number of integer values covered: [hi - lo + 1]. *)

val mem : int -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic on [(lo, hi)] — a total order for use in maps/sets. *)

val intersect : t -> t -> t option
(** The common sub-range, if the two ranges overlap. *)

val overlap_cardinal : t -> t -> int
(** [|A ∩ B|] — 0 when disjoint. *)

val union_cardinal : t -> t -> int
(** [|A ∪ B|] as sets of integers (accounts for overlap or disjointness). *)

val contains : outer:t -> inner:t -> bool
(** Whether [inner] lies entirely within [outer]. *)

val span : t -> t -> t
(** Smallest range covering both arguments (their convex hull). *)

val pad : t -> fraction:float -> domain:t -> t
(** [pad r ~fraction ~domain] expands [r] by [fraction] of its width on each
    edge (rounded down, at least 1 value per edge when [fraction > 0]), then
    clamps to [domain]. This is the paper's §5.2 query padding with 20 %
    corresponding to [fraction = 0.2]. *)

val jaccard : t -> t -> float
(** [|A ∩ B| / |A ∪ B|] — the similarity the LSH family is built on. *)

val containment : query:t -> answer:t -> float
(** [|Q ∩ R| / |Q|] — the fraction of the query covered by the answer. This
    is both the paper's containment similarity and its recall measure. *)

val fold_values : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_values : t -> int list

val pp : Format.formatter -> t -> unit
(** Renders ["[lo, hi]"]. *)

val to_string : t -> string
