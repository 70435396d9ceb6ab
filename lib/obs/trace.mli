(** Per-query tracing: structured spans and events on a deterministic
    logical clock.

    Disabled by default, with the same discipline as {!Metrics}: every
    recording entry point is one flag load and a branch when tracing is
    off. The [set_*] / [event_*] primitives take immediate arguments so
    disabled calls allocate nothing; {!with_span} costs one closure —
    innermost loops should guard on {!enabled} instead.

    Timestamps are logical-clock ticks (one increment per recorded
    timestamp), never wall clock, so traces of seeded runs are
    bit-reproducible. In the Chrome export one tick renders as 1 µs. *)

(** {1 Lifecycle} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans and restart the clock and id counter. *)

val set_capacity : int -> unit
(** Bound the span buffer (default 2,000,000). Past the cap, spans still
    run their thunk but are not recorded; see {!dropped}. *)

(** {1 Recording} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a new span (child of the current
    one). The span closes when [f] returns or raises. When tracing is
    disabled this is just [f ()]. *)

val current_id : unit -> int option
(** Id of the innermost open span — for cross-references such as "this
    cache hit reuses work recorded in span N". *)

val set_int : string -> int -> unit
(** Attach an attribute to the innermost open span. No-op when tracing
    is disabled or no span is open. Same for the variants below. *)

val set_float : string -> float -> unit
val set_string : string -> string -> unit
val set_bool : string -> bool -> unit

val event : string -> unit
(** Timestamped instant event on the innermost open span. Events outside
    any span are dropped. *)

val event_i : string -> string -> int -> unit
(** [event_i name k v] — instant event with one int attribute. *)

val event_ii : string -> string -> int -> string -> int -> unit

(** {1 Reading back} *)

type span

val spans : unit -> span list
(** Recorded spans in start order. *)

val span_count : unit -> int
val dropped : unit -> int
val clock_now : unit -> int
val span_id : span -> int
val span_parent : span -> int option
val span_name : span -> string
val span_start : span -> int
val span_stop : span -> int
val span_attrs : span -> (string * Json.t) list

val span_events : span -> (string * int * (string * Json.t) list) list
(** [(name, at, attrs)] per event, in recording order. *)

(** {1 Export} *)

val to_jsonl : unit -> string
(** One header line ([schema_version], [kind], span/clock/drop counts)
    then one JSON object per span. Deterministic for seeded runs. *)

val to_chrome : unit -> Json.t
(** Chrome trace-event document ([chrome://tracing] / Perfetto): spans as
    complete ("X") events, span events as instants ("i"). *)

val write : string -> unit
(** Write the trace to [path]: Chrome JSON when the name ends in
    [.json], JSONL otherwise. *)
