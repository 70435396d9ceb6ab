(** Process-wide instrument registry: counters, gauges, wall-clock gauges
    and bounded histograms. Every signal is declared here once and
    recorded with one call, which feeds up to two planes:

    - the {b snapshot} plane ({!enable}): run totals, dumped as JSON by
      {!snapshot} and zeroed by {!reset};
    - the {b series} plane ({!Series.enable}): per-label open windows
      that {!Series} samples on its logical clock.

    Design constraints, in order:

    - {b Near-zero cost when off.} With both planes off every record call
      is one load and a branch; no allocation, no hashing. The query path
      of the simulator records on every routed identifier, so this is the
      default state.
    - {b Create once, record often.} Constructors hash the name and are
      meant to be called at module initialization; the returned handle is
      then recorded against directly. A constructor called again with the
      same name returns the same handle and ignores [label]/[bounds]; a
      name reused with another kind raises [Invalid_argument].
    - {b Deterministic unless marked.} {!wall_gauge}s carry readings
      derived from real time: they record on the snapshot plane only,
      under its ["wall"] subtree, and never reach the series, so a seeded
      run's timeline is byte-reproducible. *)

type counter
type gauge
type histogram

(** {1 Snapshot plane switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val recording : unit -> bool
(** Whether either plane is on: guards computing a record's argument when
    that costs more than the record itself. *)

(** {1 Counters}

    [label] names the key the [_1] recorders pair their value with
    (default ["label"]); each value becomes its own series timeline, while
    the snapshot keeps one total. *)

val counter : ?label:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val incr1 : counter -> string -> unit
val counter_value : counter -> int

(** {1 Gauges}

    Last-write-wins point-in-time values (a load-imbalance ratio, a queue
    depth). *)

val gauge : string -> gauge

val wall_gauge : string -> gauge
(** A gauge whose readings derive from real time (throughput, rates):
    snapshotted under ["wall"], never sent to the series. *)

val set_gauge : gauge -> float -> unit

val gauge_value : gauge -> float
(** [nan] until first set (or after {!reset}). *)

(** {1 Histograms}

    Fixed-bucket histograms: memory is bounded regardless of how many
    observations are recorded. The default bucket boundaries are exact for
    small non-negative integers (unit-width up to 64) and exponential
    beyond (128, 256, … 2{^20}), which suits hop counts, message counts and
    millisecond latencies. Mean/min/max are exact; percentiles are resolved
    to a bucket upper bound. The series plane keeps a {n, sum, min, max}
    summary per label value. *)

val histogram : ?label:string -> ?bounds:float array -> string -> histogram
(** [bounds] (strictly increasing bucket upper bounds) is checked and used
    on first creation only. *)

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit
val observe1 : histogram -> string -> float -> unit

val hist_count : histogram -> int
val hist_mean : histogram -> float
(** [nan] when empty. *)

val hist_min : histogram -> float
val hist_max : histogram -> float

val hist_percentile : histogram -> float -> float
(** [hist_percentile h p] for [p] in [0, 100]: the smallest bucket upper
    bound covering at least [p]% of observations ([hist_max] for the
    overflow bucket; [nan] when empty). *)

(** {1 Snapshots} *)

val reset : unit -> unit
(** Zero every snapshot total in place; series state is untouched (see
    {!Series.reset}). Handles remain valid. *)

val snapshot : unit -> Json.t
(** The snapshot totals as
    [{"counters": {..}, "gauges": {..}, "histograms": {..},
      "wall": {"gauges": {..}}}], names sorted. Only entries a run
    touched appear: counters at 0, gauges never set and histograms
    without observations are left out, so every object may be empty. Histograms render count, mean,
    min, max and p50/p90/p99, with non-finite statistics as [null].
    Baseline comparisons skip the ["wall"] subtree. *)

(** {1 Series plane}

    The hooks {!Series} drives; instrumented code never calls these. *)

type sample =
  | Count of int  (** a counter's increment *)
  | Last of float  (** a gauge's last write *)
  | Summary of { n : int; sum : float; lo : float; hi : float }
      (** a histogram's observations *)

val series_enabled : unit -> bool
val set_series : bool -> unit

val drain_windows : unit -> (string * (string * string) list * sample) list
(** Every open window as (instrument, label pairs, sample), sorted by
    instrument name then label value; the windows are cleared. *)

val reset_series : unit -> unit
(** Clears every open window. *)
