(** A CAN overlay (Ratnasamy et al., SIGCOMM 2001) — the other DHT the
    paper names as a possible substrate (§3.1).

    Nodes own zones partitioning the d-torus; keys hash to points; the node
    whose zone contains a key's point stores it. Routing forwards greedily
    to the neighbour whose zone lies closest to the target point, costing
    O((d/4)·N{^(1/d)}) hops on average — the trade-off against Chord's
    O(log N) that the bench's [baseline-can] section shows. *)

type t

val create : dims:int -> t
(** An empty overlay over [\[0,1)^dims]. @raise Invalid_argument if
    [dims < 1]. *)

val dims : t -> int
val size : t -> int
val node_ids : t -> int list
(** Ascending. *)

val add_first : t -> int -> unit
(** Bootstraps with node [id] owning the whole space.
    @raise Invalid_argument if the overlay is non-empty or [id] taken. *)

val join : t -> int -> at:Zone.point -> via:int -> unit
(** [join t id ~at ~via]: routes from [via] to the zone containing [at],
    splits that zone in half and hands one half to the new node. Neighbour
    sets of all affected nodes are updated.
    @raise Invalid_argument on duplicate [id], unknown [via], or an invalid
    point. *)

val join_random : t -> int -> rng:Prng.Splitmix.t -> via:int -> unit
(** [join] at a uniformly random point. *)

val neighbours : t -> int -> int list
(** @raise Not_found for unknown nodes. *)

val point_of_key : t -> string -> Zone.point
(** Deterministic key → point mapping: coordinate [i] comes from the SHA-1
    of ["<key>#<i>"], uniform on [\[0, 1)]. *)

val owner_of_point : t -> Zone.point -> int
(** The node whose zone contains the point (by direct search — ground truth
    for tests). @raise Invalid_argument on an empty overlay. *)

val lookup : t -> from:int -> point:Zone.point -> (int * int) option
(** Greedy routing from node [from] to the owner of [point]; returns the
    owner and hop count, or [None] if routing dead-ends (cannot happen in a
    consistent overlay, guarded anyway). *)

val lookup_key : t -> from:int -> string -> (int * int) option
(** [lookup] at [point_of_key]. *)

val invariants_ok : t -> bool
(** Structural self-check used by the tests: zone volumes sum to 1, zones
    are pairwise non-overlapping, neighbour sets are symmetric and match
    {!Zone.adjacent}. *)
