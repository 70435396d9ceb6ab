(** Flight-recorder time-series plane: windowed metric timelines on a
    logical clock.

    Where a {!Metrics} snapshot is a point-in-time dump and {!Trace} is a
    per-query span tree, [Series] records how the same {!Metrics}
    instruments {e evolve}: while the plane is on, every record call also
    lands in its label value's open window, and every [window] ticks each
    window flushes one point into a bounded ring buffer — counters their
    window increment, gauges their last written value, histograms a
    {count, sum, min, max} summary. Every instrument touched while the
    plane is on reaches the timeline, except the wall-clock gauges.
    Fault-plane transitions (partition, heal, crash, recover, repair)
    land as {e marks} on the same clock, so a timeline viewer can align
    degradation and recovery against the events that caused them.

    Same discipline as {!Trace} (DESIGN decision 19):

    - {b One flag.} Recording, ticking and marking with the plane off are
      one load and a branch, allocating nothing.
    - {b Logical clock.} [tick] is driven by the protocol layer (once per
      [System] query/publish, next to the {!Faults.Plane} clock), never
      wall clock, so a timeline of a seeded run is byte-reproducible.
    - {b Bounded memory.} Points land in a ring buffer: past the
      capacity the oldest points are overwritten and counted in
      [dropped] — a flight recorder keeps the most recent history. *)

(** {1 Global switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Clears clock, points, marks, open windows and series run totals;
    {!Metrics} snapshot totals are untouched (see {!Metrics.reset}). *)

(** {1 Configuration} *)

val set_window : int -> unit
(** Ticks per sampling window (clamped to >= 1; default 64). Takes effect
    from the next flush; call before enabling for sane timelines. *)

val window : unit -> int

val set_capacity : int -> unit
(** Ring capacity in points (clamped to >= 1; default 65536). Resizing
    drops buffered points; call before enabling. *)

(** {1 Clock and marks} *)

val tick : unit -> unit
(** Advance the logical clock one tick; on a window boundary, flush every
    open window to the ring. Driven once per protocol operation by
    [System.query]/[System.publish] so the series clock advances in step
    with the {!Faults.Plane} clock. *)

val now : unit -> int

val mark : string -> unit
(** Drop a named mark at the current tick (a fault-plane transition, a
    repair pass, a bench phase boundary). *)

val mark_i : string -> string -> int -> unit
(** [mark_i name k v]: mark with one integer attribute. *)

val mark_s : string -> string -> string -> unit
(** [mark_s name k v]: mark with one string attribute. *)

(** {1 Introspection} *)

val point_count : unit -> int
(** Points currently buffered (after ring eviction). *)

val dropped : unit -> int
(** Points overwritten by the ring plus marks beyond the mark bound. *)

(** {1 Export} *)

val to_jsonl : unit -> string
(** Header line ([schema_version], [kind = "p2prange.series"], clock,
    window, point/mark/drop counts) then one JSON object per point or
    mark, merged in tick order. Flushes any open windows at the current
    tick first. Deterministic: instruments sort by name, label values
    lexicographically. *)

val to_prometheus : unit -> string
(** Prometheus-style text exposition of the series run totals (full-run
    counter sums, last gauge values, histogram summary aggregates) with
    [# TYPE] comments and label sets; names are dot-to-underscore
    sanitized under a [p2prange_] prefix. *)

val write : string -> unit
(** Writes {!to_prometheus} when [path] ends in [.prom], else
    {!to_jsonl}. *)
