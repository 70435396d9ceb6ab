(** Structured errors raised by the validated front doors
    ([Config.validate], [System.create], the peer lookups and lifecycle
    calls, fault plane and retry validation). Each carries a
    machine-readable code plus the context that produced it — which field
    was wrong, which peer or ring position was unknown — so callers never
    pattern-match message text.

    This is the implementation behind [P2prange.Error] (which re-exports
    it verbatim), split into its own library so lower layers — notably
    [lib/faults], which [lib/core] depends on — can raise the same
    exception from their own validation without a dependency cycle.
    Callers should keep matching on [P2prange.Error.Error]; the
    constructor here is the same runtime exception. *)

type code =
  | Invalid_config  (** a config field fails validation *)
  | Invalid_topology
      (** the requested ring cannot be built: no peers, non-positive
          peer count, or a SHA-1 position collision *)
  | Unknown_peer  (** a peer handle from another system *)
  | Broken_invariant
      (** a whole-system consistency invariant does not hold; never
          raised by the library itself — [System.check_invariants]
          {e returns} these as audit findings (surfaced as structured
          JSON by [bin/doctor.exe --json]) *)

type t = {
  code : code;
  message : string;  (** human-readable, stable across releases *)
  context : (string * string) list;
      (** the offending inputs, e.g. [("field", "k"); ("value", "0")] *)
}

exception Error of t

val code_name : code -> string
(** Stable lower-kebab tag: ["invalid-config"], ["invalid-topology"],
    ["unknown-peer"], ["broken-invariant"]. *)

val to_string : t -> string
(** ["[code] message (k=v, ...)"] — the rendering {!pp} and the
    registered [Printexc] printer both use. *)

val pp : Format.formatter -> t -> unit

val raise_error : ?context:(string * string) list -> code -> string -> 'a
(** Raise [Error] with the given parts. *)

val failf :
  ?context:(string * string) list ->
  code ->
  ('a, unit, string, 'b) format4 ->
  'a
(** [Printf]-style {!raise_error}. *)
