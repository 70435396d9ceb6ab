(** Reading and analysing {!Series} JSONL exports.

    Behind [bin/timeline.exe] (sparkline rendering and the CI
    change-point gates on the [chaos] bench):
    parse a series file back into points and marks, project one metric's
    per-window values, and run shape checks — "the recall dip begins
    within N ticks of the partition mark", "after the last repair mark
    two curves agree to within ε". *)

type value =
  | Count of int
  | Gauge of float
  | Summary of { n : int; sum : float; lo : float; hi : float }

type point = {
  at : int;
  metric : string;
  labels : (string * string) list;
  value : value;
}

type mark = { at : int; name : string; attrs : (string * Json.t) list }

type t = {
  clock : int;
  window : int;
  points : point list; (* tick order *)
  marks : mark list; (* tick order *)
  dropped : int;
}

val of_string : string -> (t, string) result
(** Parse the full JSONL text ({!Series.to_jsonl} output): header line
    validated ([schema_version] 1, [kind] ["p2prange.series"]), then one
    point or mark per line. *)

val load : string -> (t, string) result
(** {!of_string} on a file's contents ([Error] on read failure too). *)

val selectors : t -> (string * (string * string) list) list
(** Distinct [(metric, labels)] pairs with at least one point, sorted. *)

val series : t -> metric:string -> labels:(string * string) list -> (int * float) list
(** The per-window timeline of one selector: [(window-end tick, value)]
    in tick order. [labels] must match the point's label set exactly. *)

val mark_ticks : t -> string -> int list
(** Ticks of every mark with the given name, in order. *)

val check_dip : t -> metric:string -> labels:(string * string) list ->
  mark:string -> within:int -> min_dip:float -> (string, string) result
(** Change-point gate: against the baseline mean of all windows at or
    before the first [mark], some window ending within [within] ticks
    after it must sit at least [min_dip] below — i.e. the degradation
    begins on time. [Ok]/[Error] carry a human-readable verdict. *)

val check_converge : t -> metric:string -> labels_a:(string * string) list ->
  labels_b:(string * string) list -> mark:string -> eps:float ->
  (string, string) result
(** Recovery gate: after the {e last} [mark], the weighted means of the
    two label projections of [metric] agree to within [eps]. *)
