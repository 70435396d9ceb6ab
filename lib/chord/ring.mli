(** A static Chord ring with exact fingers.

    This models a converged network (every node's successor and fingers are
    correct), which is the setting of the paper's scalability experiments
    (§5.3): build a ring of N peers, map 50,000 partition identifiers onto
    it, and measure per-node load and lookup path lengths. The dynamic
    protocol (joins, failures, stabilization) lives in {!Network}.

    The ring stores only its sorted node identifiers, one word per node.
    A converged finger is a function of that array, so no table is kept:
    each hop derives its closest preceding finger with one binary search,
    and takes the same hop a 32-entry finger table would give. *)

type t

val create : ids:Id.t list -> t
(** Builds the ring for the given node identifiers.
    @raise Invalid_argument on an empty list, duplicates, or invalid ids. *)

val of_names : string list -> t
(** Places one node per name at [Id.of_name name] — the paper's SHA-1
    placement. @raise Invalid_argument on hash collisions (regenerate with
    different names; collisions are ~N²/2³³, negligible for N ≤ 10⁵). *)

val random : Prng.Splitmix.t -> n:int -> t
(** [n] nodes at distinct uniform identifiers. *)

val size : t -> int
val node_ids : t -> Id.t array
(** Sorted copy of all node identifiers. *)

val contains : t -> Id.t -> bool

val owner : t -> Id.t -> Id.t
(** [owner t key] is the node that stores [key]: the first node clockwise at
    or after [key] (Chord's [successor(key)]). *)

val successor : t -> Id.t -> Id.t
(** Ring successor of a *node*. @raise Not_found if the id is not a node. *)

val predecessor : t -> Id.t -> Id.t

val finger : t -> Id.t -> int -> Id.t
(** [finger t n i] = [owner t (n + 2{^i})], for [i] in [\[0, 31]],
    computed on demand (nothing is stored per finger).
    @raise Not_found if [n] is not a node; @raise Invalid_argument if [i]
    is out of range. *)

val lookup : t -> from:Id.t -> key:Id.t -> Id.t * int
(** Routes a query from node [from] to the owner of [key] using
    closest-preceding-finger forwarding; returns the owner and the number of
    overlay hops traversed (0 when [from] is the owner). Mean hops in a
    converged N-node ring is ≈ ½·log₂ N. *)

(** Address knowledge accumulated across the lookups of one batch round.

    Iterative routing tells the querier the address of every node its
    walks pass through; later lookups of the same round jump straight to
    the known node closest to (and not past) the target owner instead of
    re-walking the shared finger prefix. Purely a hop saver: owners are
    unchanged, and a cached lookup never takes more hops than {!lookup}
    for the same key. The addresses are kept in an ordered set, so the
    best one — the known node closest before the owner — is a single
    predecessor query. *)
module Route_cache : sig
  type t

  val create : unit -> t

  val learn : t -> Id.t -> unit
  (** Record a node address (normally done by {!lookup_via} itself). *)

  val known : t -> int
  (** Distinct node addresses learned so far; counting takes time linear
      in that number. *)

  val shortcuts : t -> int
  (** Lookups that jumped via a cached address. *)

  val full_walks : t -> int
  (** Lookups that routed from scratch. *)
end

val lookup_via : t -> Route_cache.t -> from:Id.t -> key:Id.t -> Id.t * int
(** {!lookup} through a {!Route_cache}: starts from the best cached
    address when that beats the plain first finger hop, and learns every
    node the route touches. Same owner as [lookup], hops ≤ [lookup]'s. *)
