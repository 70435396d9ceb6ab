(* In-memory span log of a traced run.

   The benchmark records a span around every call it makes into the
   program: its name, start and end on the monotonic clock, the span that
   caused it and the op it belongs to. Spans stay in growable arrays
   until the run ends, when they can be written out as JSON lines. A
   span's self time is its duration minus the time its children cover. *)

type t = {
  mutable len : int;
  mutable name : int array; (* index into [names] *)
  mutable start : int array; (* ns *)
  mutable stop : int array;
  mutable parent : int array; (* -1 for a root *)
  mutable op : int array;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
}

let create () =
  let cap = 1024 in
  {
    len = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    op = Array.make cap 0;
    names = Hashtbl.create 16;
    name_of = [||];
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.replace t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- extend t.name 0;
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent (-1);
  t.op <- extend t.op 0

(* Opens a span now and returns its id; [close] stamps its end. *)
let open_ t ~name ~parent ~op =
  if t.len = Array.length t.name then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.name.(id) <- name;
  t.parent.(id) <- parent;
  t.op.(id) <- op;
  t.start.(id) <- Clock.now_ns ();
  id

let close t id = t.stop.(id) <- Clock.now_ns ()

let with_span t ~name ~parent ~op f =
  let id = open_ t ~name ~parent ~op in
  match f () with
  | v ->
    close t id;
    v
  | exception e ->
    close t id;
    raise e

(* Self time of every span, in ns. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

(* Per op, the summed self time of the spans named [name]: an array
   indexed by op id over [ops] ops. Spans outside any op (op id -1) are
   left out. *)
let self_by_op t ~ops name =
  let acc = Array.make ops 0 in
  (match Hashtbl.find_opt t.names name with
  | None -> ()
  | Some n ->
    let self = self_times t in
    for i = 0 to t.len - 1 do
      let op = t.op.(i) in
      if t.name.(i) = n && op >= 0 then acc.(op) <- acc.(op) + self.(i)
    done);
  acc

(* Total duration and count of the spans named [name]. *)
let total t name =
  match Hashtbl.find_opt t.names name with
  | None -> (0, 0)
  | Some n ->
    let sum = ref 0 and count = ref 0 in
    for i = 0 to t.len - 1 do
      if t.name.(i) = n then begin
        sum := !sum + (t.stop.(i) - t.start.(i));
        incr count
      end
    done;
    (!sum, !count)

let durations t name =
  match Hashtbl.find_opt t.names name with
  | None -> [||]
  | Some n ->
    let out = ref [] in
    for i = t.len - 1 downto 0 do
      if t.name.(i) = n then
        out := float_of_int (t.stop.(i) - t.start.(i)) :: !out
    done;
    Array.of_list !out

(* At most this many spans are written out; a last line counts the
   rest. *)
let max_written = 200_000

(* One JSON object per span, times relative to the first span. *)
let write t path =
  let origin = if t.len = 0 then 0 else t.start.(0) in
  let oc = open_out path in
  let line fields =
    output_string oc (Obs.Json.to_string ~indent:0 (Obs.Json.Obj fields));
    output_char oc '\n'
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let written = Stdlib.min max_written t.len in
      for i = 0 to written - 1 do
        line
          Obs.Json.
            [
              ("id", Int i);
              ("name", String t.name_of.(t.name.(i)));
              ("parent", Int t.parent.(i));
              ("op", Int t.op.(i));
              ("start_ns", Int (t.start.(i) - origin));
              ("end_ns", Int (t.stop.(i) - origin));
            ]
      done;
      if written < t.len then line [ ("dropped", Obs.Json.Int (t.len - written)) ])
