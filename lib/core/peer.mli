(** A peer: a named node on the identifier ring with a partition store.

    The peer's ring position is the SHA-1 of its name (§4) — in a
    deployment the name would be its IP address. *)

type t

val create : ?policy:Store.policy -> name:string -> unit -> t
(** [create ?policy ~name ()] — [policy] bounds the peer's partition cache
    (default [Unbounded]). *)

val id : t -> Chord.Id.t
val name : t -> string
val store : t -> Store.t
(** The peer's own store. It holds no bucket table until the peer's first
    write, so a peer that never stores anything costs a few words. *)

val load : t -> int
(** Number of cached partition entries — the quantity Figure 11 plots. *)
