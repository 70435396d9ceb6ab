(** Aligned ASCII tables for benchmark and experiment output.

    Every figure reproduced by [bench/main.exe] is printed as one of these
    tables so that the series can be compared against the paper by eye or
    scraped by a plotting script. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] starts an empty table with the given headers. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row length differs from the header. *)

val pp : Format.formatter -> t -> unit
(** Renders with a header rule and columns padded to their widest cell. *)

val to_string : t -> string
