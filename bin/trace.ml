(* Offline trace analysis for the JSONL traces written by [Obs.Trace].

   Reads a header line plus one span object per line and reports:
   - per-stage latency and message attribution (total vs self ticks),
   - a message-conservation check per query: the [msgs] attributions on
     the query's descendant spans/events must sum to the [messages]
     total the query span recorded (exit 1 on any mismatch),
   - the top-N slowest queries with their critical path, and
   - a hop-count waterfall over each slow query's routing work.

   --since TICK / --until TICK restrict the analysis to spans whose
   root starts inside the logical-clock window [since, until]: a kept
   root keeps its whole subtree (so message conservation still sums
   over complete trees), a dropped root drops it.

   Usage: trace.exe TRACE.jsonl [--top N] [--since TICK] [--until TICK] *)

module Json = Obs.Json

let fail fmt =
  Format.kasprintf
    (fun s ->
      prerr_endline ("trace: " ^ s);
      exit 2)
    fmt

let usage () =
  fail "usage: trace.exe TRACE.jsonl [--top N] [--since TICK] [--until TICK]"

type event = { event_name : string; event_attrs : (string * Json.t) list }

type span = {
  id : int;
  parent : int option;
  name : string;
  start : int;
  stop : int;
  attrs : (string * Json.t) list;
  events : event list;
}

(* --- parsing --- *)

let get ~ctx key obj =
  match Json.member key obj with
  | Some v -> v
  | None -> fail "%s: missing field %S" ctx key

let get_int ~ctx key obj =
  match get ~ctx key obj with
  | Json.Int i -> i
  | _ -> fail "%s: field %S is not an int" ctx key

let get_string ~ctx key obj =
  match get ~ctx key obj with
  | Json.String s -> s
  | _ -> fail "%s: field %S is not a string" ctx key

let get_fields ~ctx key obj =
  match get ~ctx key obj with
  | Json.Obj fields -> fields
  | _ -> fail "%s: field %S is not an object" ctx key

let parse_event ~ctx j =
  {
    event_name = get_string ~ctx "name" j;
    event_attrs = get_fields ~ctx "attrs" j;
  }

let parse_span ~ctx j =
  {
    id = get_int ~ctx "id" j;
    parent =
      (match get ~ctx "parent" j with
      | Json.Null -> None
      | Json.Int p -> Some p
      | _ -> fail "%s: field \"parent\" is not null or an int" ctx);
    name = get_string ~ctx "name" j;
    start = get_int ~ctx "start" j;
    stop = get_int ~ctx "end" j;
    attrs = get_fields ~ctx "attrs" j;
    events =
      (match get ~ctx "events" j with
      | Json.List events -> List.map (parse_event ~ctx) events
      | _ -> fail "%s: field \"events\" is not a list" ctx);
  }

let load path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> fail "cannot open %s: %s" path msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let line n =
        match input_line ic with
        | line -> Some (n, line)
        | exception End_of_file -> None
      in
      let parse (n, text) =
        let ctx = Printf.sprintf "%s:%d" path n in
        match Json.of_string text with
        | Ok j -> (ctx, j)
        | Error msg -> fail "%s: %s" ctx msg
      in
      let header =
        match line 1 with
        | Some l -> parse l
        | None -> fail "%s: empty file" path
      in
      let ctx, h = header in
      if get_int ~ctx "schema_version" h <> 1 then
        fail "%s: unsupported schema_version" ctx;
      if get_string ~ctx "kind" h <> "p2prange.trace" then
        fail "%s: not a p2prange trace" ctx;
      let clock = get_int ~ctx "clock" h in
      let dropped = get_int ~ctx "dropped" h in
      let declared = get_int ~ctx "spans" h in
      let rec spans n acc =
        match line n with
        | None -> List.rev acc
        | Some l ->
          let ctx, j = parse l in
          spans (n + 1) (parse_span ~ctx j :: acc)
      in
      let spans = spans 2 [] in
      if List.length spans <> declared then
        fail "%s: header declares %d spans, file has %d" path declared
          (List.length spans);
      (spans, clock, dropped))

(* --- span-tree helpers --- *)

let attr_int key attrs =
  match List.assoc_opt key attrs with Some (Json.Int i) -> Some i | _ -> None

let attr_show key attrs =
  match List.assoc_opt key attrs with
  | Some (Json.String s) -> s
  | Some v -> Json.to_string ~indent:0 v
  | None -> "?"

let duration s = s.stop - s.start

let children_of spans =
  let table = Hashtbl.create (List.length spans) in
  List.iter
    (fun s ->
      match s.parent with
      | None -> ()
      | Some p ->
        Hashtbl.replace table p
          (s :: Option.value (Hashtbl.find_opt table p) ~default:[]))
    spans;
  fun s -> List.rev (Option.value (Hashtbl.find_opt table s.id) ~default:[])

let rec descendants children s =
  List.concat_map (fun kid -> kid :: descendants children kid) (children s)

(* --- per-stage attribution --- *)

type stage = {
  mutable count : int;
  mutable total : int; (* ticks, including children *)
  mutable self : int; (* ticks minus direct children's ticks *)
  mutable msgs : int; (* sum of [msgs] attributions *)
}

let stage_table spans children =
  let stages = Hashtbl.create 16 in
  let events = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let st =
        match Hashtbl.find_opt stages s.name with
        | Some st -> st
        | None ->
          let st = { count = 0; total = 0; self = 0; msgs = 0 } in
          Hashtbl.replace stages s.name st;
          st
      in
      let kid_ticks =
        List.fold_left (fun acc kid -> acc + duration kid) 0 (children s)
      in
      st.count <- st.count + 1;
      st.total <- st.total + duration s;
      st.self <- st.self + max 0 (duration s - kid_ticks);
      st.msgs <- st.msgs + Option.value (attr_int "msgs" s.attrs) ~default:0;
      List.iter
        (fun e ->
          let count, msgs =
            Option.value (Hashtbl.find_opt events e.event_name) ~default:(0, 0)
          in
          Hashtbl.replace events e.event_name
            ( count + 1,
              msgs + Option.value (attr_int "msgs" e.event_attrs) ~default:0 ))
        s.events)
    spans;
  (stages, events)

let sorted_bindings table =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let print_stages spans children =
  let stages, events = stage_table spans children in
  Printf.printf "Per-stage attribution (ticks are logical-clock units):\n";
  Printf.printf "  %-24s %8s %10s %10s %8s\n" "span" "count" "total" "self"
    "msgs";
  List.iter
    (fun (name, st) ->
      Printf.printf "  %-24s %8d %10d %10d %8d\n" name st.count st.total
        st.self st.msgs)
    (sorted_bindings stages);
  if Hashtbl.length events > 0 then begin
    Printf.printf "  %-24s %8s %10s %10s %8s\n" "event" "count" "" "" "msgs";
    List.iter
      (fun (name, (count, msgs)) ->
        Printf.printf "  %-24s %8d %10s %10s %8d\n" name count "" "" msgs)
      (sorted_bindings events)
  end

(* --- per-query message conservation --- *)

(* The convention the instrumentation maintains: the query span's
   [messages] attr is its claimed total, and every message the query paid
   for is attributed exactly once below it — [msgs] on serve spans
   (single-query path), [msgs] on fresh route spans and contact events
   (batch path). Shared batch work referenced via *_memo_hit/_coalesced
   events carries no [msgs], so coalesced queries sum to their marginal
   cost. *)
let attributed_msgs children query =
  let event_msgs s =
    List.fold_left
      (fun acc e -> acc + Option.value (attr_int "msgs" e.event_attrs) ~default:0)
      0 s.events
  in
  List.fold_left
    (fun acc s -> acc + event_msgs s + Option.value (attr_int "msgs" s.attrs) ~default:0)
    (event_msgs query) (descendants children query)

let check_queries queries children =
  let mismatches = ref 0 in
  let total = ref 0 in
  List.iter
    (fun q ->
      match attr_int "messages" q.attrs with
      | None -> ()
      | Some claimed ->
        total := !total + claimed;
        let attributed = attributed_msgs children q in
        if attributed <> claimed then begin
          incr mismatches;
          Printf.printf
            "  MISMATCH query span %d: messages attr %d, span tree attributes %d\n"
            q.id claimed attributed
        end)
    queries;
  Printf.printf
    "Message conservation: %d queries, %d total messages, %d mismatches\n"
    (List.length queries) !total !mismatches;
  !mismatches = 0

(* --- critical paths and hop waterfalls --- *)

let rec critical_path children s =
  match children s with
  | [] -> [ s ]
  | kids ->
    let slowest =
      List.fold_left
        (fun best kid -> if duration kid > duration best then kid else best)
        (List.hd kids) (List.tl kids)
    in
    s :: critical_path children slowest

let bar n =
  let n = min n 40 in
  String.make n '#'

let print_query children q =
  Printf.printf
    "query span %d: range [%s, %s] from %s — %d ticks, %s messages, recall %s%s\n"
    q.id (attr_show "lo" q.attrs) (attr_show "hi" q.attrs)
    (attr_show "from" q.attrs) (duration q) (attr_show "messages" q.attrs)
    (attr_show "recall" q.attrs)
    (match List.assoc_opt "degraded" q.attrs with
    | Some (Json.Bool true) -> " (degraded)"
    | _ -> "");
  Printf.printf "  critical path: %s\n"
    (String.concat " > "
       (List.map
          (fun s -> Printf.sprintf "%s[%d] %dt" s.name s.id (duration s))
          (critical_path children q)));
  let below = descendants children q in
  let route_ids =
    List.filter_map (fun s -> if s.name = "route" then Some s.id else None)
      below
  in
  let hops =
    List.filter_map
      (fun s ->
        match s.name with
        (* A lookup nested under a route span is the same walk — show the
           route row only. *)
        | "chord.lookup"
          when (match s.parent with
               | Some p -> List.mem p route_ids
               | None -> false) ->
          None
        | "route" | "chord.lookup" ->
          Option.map
            (fun h ->
              let key =
                match attr_int "identifier" s.attrs with
                | Some k -> k
                | None -> Option.value (attr_int "key" s.attrs) ~default:(-1)
              in
              (s.name, key, h))
            (attr_int "hops" s.attrs)
        | _ -> None)
      below
  in
  if hops <> [] then begin
    Printf.printf "  hop waterfall:\n";
    List.iter
      (fun (name, key, h) ->
        Printf.printf "    %-16s key %-12d %2d %s\n" name key h (bar h))
      hops
  end

(* --- main --- *)

(* A span belongs to the window iff its root span starts inside it:
   whole trees are kept or dropped together so the conservation check
   never sees a query whose attributed children were filtered away. *)
let window_filter spans ~since ~until =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    match s.parent with
    | None -> s
    | Some p -> (
      match Hashtbl.find_opt by_id p with None -> s | Some parent -> root parent)
  in
  List.filter
    (fun s ->
      let r = root s in
      r.start >= since && r.start <= until)
    spans

let () =
  let file, top, since, until =
    match Array.to_list Sys.argv with
    | _ :: file :: rest ->
      let tick ctx n =
        match int_of_string_opt n with
        | Some n when n >= 0 -> n
        | Some _ | None -> fail "%s expects a non-negative tick, got %S" ctx n
      in
      let rec opts top since until = function
        | [] -> (top, since, until)
        | "--top" :: n :: rest -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> opts n since until rest
          | Some _ | None -> usage ())
        | "--since" :: n :: rest -> opts top (tick "--since" n) until rest
        | "--until" :: n :: rest -> opts top since (tick "--until" n) rest
        | _ -> usage ()
      in
      let top, since, until = opts 5 0 max_int rest in
      (file, top, since, until)
    | _ -> usage ()
  in
  let spans, clock, dropped = load file in
  let total = List.length spans in
  let spans =
    if since > 0 || until < max_int then window_filter spans ~since ~until
    else spans
  in
  Printf.printf "%s: %d spans, %d clock ticks, %d dropped%s\n\n" file total
    clock dropped
    (if List.length spans <> total then
       Printf.sprintf " (window [%d, %s]: %d spans kept)" since
         (if until = max_int then "end" else string_of_int until)
         (List.length spans)
     else "");
  let children = children_of spans in
  print_stages spans children;
  Printf.printf "\n";
  let queries = List.filter (fun s -> s.name = "query") spans in
  let ok = check_queries queries children in
  let slowest =
    List.sort (fun a b -> compare (duration b, a.id) (duration a, b.id)) queries
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  let slowest = take top slowest in
  if slowest <> [] then begin
    Printf.printf "\nTop %d slowest queries:\n" (List.length slowest);
    List.iter (print_query children) slowest
  end;
  if not ok then exit 1
