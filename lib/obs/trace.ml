(* Per-query tracing: structured spans and events on a deterministic
   logical clock.

   Same discipline as [Metrics]: a single global [on] flag, and every
   recording entry point loads it and branches before doing anything
   else. The primitive recorders ([set_int], [event_i], ...) take
   immediate arguments so a disabled call allocates nothing; [with_span]
   costs its closure, which keeps it out of the innermost hashing loop
   (see [Lsh.Scheme], which guards with [enabled] instead).

   Timestamps are ticks of a logical clock — a counter bumped once per
   recorded timestamp — never wall clock, so a trace of a seeded run is
   bit-reproducible (DESIGN decision 15). One tick renders as one
   microsecond in the Chrome export purely for display. *)

type event = {
  event_name : string;
  at : int;
  event_attrs : (string * Json.t) list;
}

type span = {
  id : int;
  parent : int option;
  span_name : string;
  start : int;
  mutable stop : int; (* -1 while the span is open *)
  mutable attrs : (string * Json.t) list; (* newest first *)
  mutable events : event list; (* newest first *)
}

let on = ref false
let clock = ref 0
let next_id = ref 1
let all : span list ref = ref [] (* newest first *)
let stack : span list ref = ref []
let recorded = ref 0
let dropped_spans = ref 0

(* Bounds the buffer so tracing a long bench run cannot exhaust memory:
   past the cap, [with_span] still runs its thunk (and keeps the clock
   ticking) but records nothing; the header reports the drop count. *)
let default_capacity = 2_000_000
let capacity = ref default_capacity
let set_capacity n = capacity := max 1 n

let enabled () = !on
let enable () = on := true
let disable () = on := false

let reset () =
  clock := 0;
  next_id := 1;
  all := [];
  stack := [];
  recorded := 0;
  dropped_spans := 0

let tick () =
  incr clock;
  !clock

let current_id () =
  match !stack with [] -> None | s :: _ -> Some s.id

let with_span name f =
  if not !on then f ()
  else if !recorded >= !capacity then (
    incr dropped_spans;
    f ())
  else begin
    let parent = match !stack with [] -> None | s :: _ -> Some s.id in
    let s =
      {
        id = !next_id;
        parent;
        span_name = name;
        start = tick ();
        stop = -1;
        attrs = [];
        events = [];
      }
    in
    incr next_id;
    incr recorded;
    all := s :: !all;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- tick ();
        (* Pop back to [s] even if an exception skipped nested cleanup. *)
        let rec pop = function
          | top :: rest -> if top == s then rest else pop rest
          | [] -> []
        in
        stack := pop !stack)
      f
  end

let set key v =
  match !stack with [] -> () | s :: _ -> s.attrs <- (key, v) :: s.attrs

let set_int key v = if !on then set key (Json.Int v)
let set_float key v = if !on then set key (Json.Float v)
let set_string key v = if !on then set key (Json.String v)
let set_bool key v = if !on then set key (Json.Bool v)

let add_event name attrs =
  match !stack with
  | [] -> () (* events outside any span are dropped *)
  | s :: _ ->
    s.events <- { event_name = name; at = tick (); event_attrs = attrs } :: s.events

let event name = if !on then add_event name []
let event_i name k v = if !on then add_event name [ (k, Json.Int v) ]

let event_ii name k1 v1 k2 v2 =
  if !on then add_event name [ (k1, Json.Int v1); (k2, Json.Int v2) ]

(* Read-side accessors (export, tests). *)

let spans () = List.rev !all (* start order = id order *)
let span_count () = !recorded
let dropped () = !dropped_spans
let clock_now () = !clock
let span_id s = s.id
let span_parent s = s.parent
let span_name s = s.span_name
let span_start s = s.start
let span_stop s = if s.stop < 0 then !clock else s.stop
let span_attrs s = List.rev s.attrs

let span_events s =
  List.rev_map (fun e -> (e.event_name, e.at, e.event_attrs)) s.events

(* Export. *)

let json_of_event e =
  Json.Obj
    [
      ("name", Json.String e.event_name);
      ("at", Json.Int e.at);
      ("attrs", Json.Obj e.event_attrs);
    ]

let json_of_span s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", match s.parent with None -> Json.Null | Some p -> Json.Int p);
      ("name", Json.String s.span_name);
      ("start", Json.Int s.start);
      ("end", Json.Int (span_stop s));
      ("attrs", Json.Obj (List.rev s.attrs));
      ("events", Json.List (List.rev_map json_of_event s.events));
    ]

let header () =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("kind", Json.String "p2prange.trace");
      ("spans", Json.Int !recorded);
      ("clock", Json.Int !clock);
      ("dropped", Json.Int !dropped_spans);
    ]

let to_jsonl () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Json.to_string ~indent:0 (header ()));
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf (Json.to_string ~indent:0 (json_of_span s));
      Buffer.add_char buf '\n')
    (spans ());
  Buffer.contents buf

(* Chrome trace-event format: one complete ("X") event per span, one
   instant ("i") per span event; ts/dur in ticks rendered as µs. *)
let to_chrome () =
  let of_span s =
    Json.Obj
      [
        ("name", Json.String s.span_name);
        ("cat", Json.String "p2prange");
        ("ph", Json.String "X");
        ("ts", Json.Int s.start);
        ("dur", Json.Int (span_stop s - s.start));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj (("span", Json.Int s.id) :: List.rev s.attrs));
      ]
  and of_instant sid e =
    Json.Obj
      [
        ("name", Json.String e.event_name);
        ("cat", Json.String "p2prange");
        ("ph", Json.String "i");
        ("ts", Json.Int e.at);
        ("s", Json.String "t");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj (("span", Json.Int sid) :: e.event_attrs));
      ]
  in
  let events =
    List.concat_map
      (fun s -> of_span s :: List.rev_map (of_instant s.id) s.events)
      (spans ())
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let write path =
  if Filename.check_suffix path ".json" then Json.to_file path (to_chrome ())
  else
    Out_channel.with_open_bin path (fun oc -> output_string oc (to_jsonl ()))
