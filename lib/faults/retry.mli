(** Retry policy for RPCs crossing the fault plane.

    A policy bounds the number of delivery attempts per contact, so a
    crashed destination costs a bounded number of tries instead of
    hanging a query forever. *)

type policy = {
  max_attempts : int;  (** total tries, including the first (>= 1) *)
}

val none : policy
(** Exactly one attempt — fault injection without recovery (the ablation
    baseline). *)

val default : policy
(** 4 attempts. *)

val validate : policy -> unit
(** @raise P2perror.Error ([Invalid_config], context naming the
    [retry.max_attempts] field) when fewer than one attempt is allowed. *)
