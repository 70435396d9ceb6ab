(* Flight-recorder time-series: windowed samples of the Metrics
   instruments on a logical clock, in a bounded ring buffer.

   The instruments, the plane flag and the per-label open windows live in
   [Metrics], so one record call feeds both planes; this module owns the
   clock, the ring, the marks and the exports. Same discipline as
   [Trace]: the flag is loaded and branched on before anything else, and
   the clock is ticked by the protocol layer (once per System operation,
   in step with the Faults.Plane clock) instead of wall time, so a seeded
   run's timeline is byte-reproducible (DESIGN decision 19).

   Every [window] ticks each instrument flushes one point per touched
   label value. Points past the ring capacity overwrite the oldest and
   are counted in [dropped] — the recorder keeps the most recent history,
   like a flight recorder. *)

type point = {
  at : int; (* window-end tick *)
  metric : string;
  labels : (string * string) list;
  value : Metrics.sample;
}

type mark_rec = {
  m_at : int;
  m_name : string;
  m_attrs : (string * Json.t) list;
}

let enabled = Metrics.series_enabled
let enable () = Metrics.set_series true
let disable () = Metrics.set_series false

let clock = ref 0
let now () = !clock

let default_window = 64
let window_width = ref default_window
let set_window n = window_width := max 1 n
let window () = !window_width

(* Ring buffer of flushed points. *)
let default_capacity = 65536
let capacity = ref default_capacity
let ring : point array ref = ref [||]
let ring_start = ref 0
let ring_len = ref 0
let dropped_count = ref 0

let set_capacity n =
  capacity := max 1 n;
  ring := [||];
  ring_start := 0;
  ring_len := 0

(* Marks are rare (fault transitions, phase boundaries); a fixed bound
   keeps pathological loops from exhausting memory, counted in the same
   drop tally. *)
let mark_cap = 65536
let marks : mark_rec list ref = ref [] (* newest first *)
let mark_len = ref 0

let reset () =
  clock := 0;
  ring := [||];
  ring_start := 0;
  ring_len := 0;
  dropped_count := 0;
  marks := [];
  mark_len := 0;
  Metrics.reset_series ()

let emit p =
  let cap = !capacity in
  if Array.length !ring <> cap then begin
    ring := Array.make cap p;
    ring_start := 0;
    ring_len := 0
  end;
  if !ring_len < cap then begin
    !ring.((!ring_start + !ring_len) mod cap) <- p;
    incr ring_len
  end
  else begin
    !ring.(!ring_start) <- p;
    ring_start := (!ring_start + 1) mod cap;
    incr dropped_count
  end

let points () =
  List.init !ring_len (fun i -> !ring.((!ring_start + i) mod !capacity))

let point_count () = !ring_len
let dropped () = !dropped_count

(* Clock, flushing and marks. *)

let flush_at at =
  List.iter
    (fun (metric, labels, value) -> emit { at; metric; labels; value })
    (Metrics.drain_windows ())

let tick () =
  if enabled () then begin
    clock := !clock + 1;
    if !clock mod !window_width = 0 then flush_at !clock
  end

let add_mark name attrs =
  if !mark_len >= mark_cap then dropped_count := !dropped_count + 1
  else begin
    marks := { m_at = !clock; m_name = name; m_attrs = attrs } :: !marks;
    mark_len := !mark_len + 1
  end

let mark name = if enabled () then add_mark name []
let mark_i name k v = if enabled () then add_mark name [ (k, Json.Int v) ]
let mark_s name k v = if enabled () then add_mark name [ (k, Json.String v) ]

(* Export. *)

let json_of_point p =
  let base =
    [
      ("at", Json.Int p.at);
      ("metric", Json.String p.metric);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) p.labels));
    ]
  in
  let float_or_null f = if Float.is_finite f then Json.Float f else Json.Null in
  let value =
    match p.value with
    | Metrics.Count c -> [ ("type", Json.String "count"); ("value", Json.Int c) ]
    | Metrics.Last v -> [ ("type", Json.String "gauge"); ("value", float_or_null v) ]
    | Metrics.Summary s ->
      [
        ("type", Json.String "summary");
        ("n", Json.Int s.n);
        ("sum", float_or_null s.sum);
        ("min", float_or_null s.lo);
        ("max", float_or_null s.hi);
      ]
  in
  Json.Obj (base @ value)

let json_of_mark m =
  Json.Obj
    [
      ("at", Json.Int m.m_at);
      ("mark", Json.String m.m_name);
      ("attrs", Json.Obj m.m_attrs);
    ]

let header () =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("kind", Json.String "p2prange.series");
      ("clock", Json.Int !clock);
      ("window", Json.Int !window_width);
      ("points", Json.Int !ring_len);
      ("marks", Json.Int !mark_len);
      ("dropped", Json.Int !dropped_count);
    ]

let to_jsonl () =
  flush_at !clock;
  let buf = Buffer.create 65536 in
  let line j =
    Buffer.add_string buf (Json.to_string ~indent:0 j);
    Buffer.add_char buf '\n'
  in
  line (header ());
  (* Merge points and marks in tick order; marks sort before the window
     that closed at the same tick (the mark happened inside it). *)
  let rec merge ps ms =
    match (ps, ms) with
    | [], [] -> ()
    | [], m :: ms ->
      line (json_of_mark m);
      merge [] ms
    | p :: ps', [] ->
      line (json_of_point p);
      merge ps' []
    | p :: ps', m :: ms' ->
      if m.m_at <= p.at then begin
        line (json_of_mark m);
        merge ps ms'
      end
      else begin
        line (json_of_point p);
        merge ps' ms
      end
  in
  merge (points ()) (List.rev !marks);
  Buffer.contents buf

let write path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_jsonl ()))
