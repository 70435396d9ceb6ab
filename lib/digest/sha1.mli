(** SHA-1 (FIPS PUB 180-1), implemented from scratch.

    The paper hashes each peer's address with SHA-1 to place it uniformly on
    the 32-bit Chord identifier ring; this module provides the digest and the
    truncation to a ring identifier. SHA-1 is used here purely as a uniform
    hash — its cryptographic weaknesses are irrelevant to load balancing. *)

type digest = private string
(** A 20-byte raw digest. *)

val digest_string : string -> digest
(** [digest_string s] is the SHA-1 digest of the bytes of [s]. *)

val to_hex : digest -> string
(** Lowercase 40-character hexadecimal rendering. *)

val to_uint32 : digest -> int
(** The first four digest bytes, big-endian, as an unsigned value in
    [\[0, 2{^32})] — a uniform 32-bit value, suitable as a Chord ring
    identifier. *)
