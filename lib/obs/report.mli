(** Shared snapshot-emission wrapper for the CLI drivers (bin/repro,
    bench/main): enable the {!Metrics} / {!Trace} registries, reset, run,
    snapshot, and write versioned JSON documents. *)

val schema_version : int
(** Version stamped into every emitted document (currently 1). *)

val document : ?command:string -> (string * Json.t) list -> Json.t
(** [document fields] is an object starting with [schema_version] (and
    [command] when given) followed by [fields], in order. *)

val write_trace : string -> unit
(** Write the recorded trace via {!Trace.write} (Chrome JSON for [.json]
    paths, JSONL otherwise), echoing where it went and the span count. *)

val with_json :
  ?series:string option ->
  json:string option ->
  trace:string option ->
  string ->
  (unit -> unit) ->
  unit
(** [with_json ~json ~trace ~series command f] enables and resets the
    metrics registry when [json] is given, the tracing plane when
    [trace] is, and the timeline plane when [series] is, runs [f], then
    writes the requested snapshot files. With all [None] this is just
    [f ()]. *)
