(* Bit 1 is the snapshot plane ([enable]); bit 2 the series plane, which
   [Series.enable] drives through [set_series]. With both clear every
   record call is one load and a branch. *)
let planes = ref 0

let enabled () = !planes land 1 <> 0
let enable () = planes := !planes lor 1
let disable () = planes := !planes land lnot 1
let recording () = !planes <> 0
let series_enabled () = !planes land 2 <> 0

let set_series on =
  planes := if on then !planes lor 2 else !planes land lnot 2

type kind = Counter | Gauge | Wall_gauge | Histogram

(* One stream of records. Counters add into [c]; gauges keep their last
   write in [sum] ([n] = 1 once set); histograms count [n] observations
   summing to [sum] within [lo, hi]. *)
type accum = {
  mutable c : int;
  mutable n : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

type inst = {
  name : string;
  kind : kind;
  key : string; (* label key the [_1] recorders pair their value with *)
  total : accum; (* snapshot plane *)
  bounds : float array; (* histograms: strictly increasing upper bounds *)
  buckets : int array; (* histograms: one per bound, plus overflow *)
  window : (string option, accum) Hashtbl.t; (* series: open window *)
}

type counter = inst
type gauge = inst
type histogram = inst

let registry : (string, inst) Hashtbl.t = Hashtbl.create 64

let fresh () =
  { c = 0; n = 0; sum = 0.0; lo = Float.infinity; hi = Float.neg_infinity }

let register ?(label = "label") ?(bounds = [||]) kind name =
  match Hashtbl.find_opt registry name with
  | Some i when i.kind = kind -> i
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Metrics: %S already registered with another type" name)
  | None ->
    let i =
      {
        name;
        kind;
        key = label;
        total = fresh ();
        bounds;
        buckets = Array.make (Array.length bounds + 1) 0;
        window = Hashtbl.create 8;
      }
    in
    Hashtbl.replace registry name i;
    i

let counter ?label name = register ?label Counter name
let gauge name = register Gauge name
let wall_gauge name = register Wall_gauge name

(* Unit-width buckets are exact for hop/message counts; the exponential
   tail keeps latency outliers bounded without losing their magnitude. *)
let default_bounds =
  Array.append
    (Array.init 65 float_of_int)
    (Array.init 14 (fun i -> float_of_int (128 lsl i)))

let histogram ?label ?(bounds = default_bounds) name =
  if not (Hashtbl.mem registry name) then begin
    let len = Array.length bounds in
    if len = 0 then invalid_arg "Metrics.histogram: empty bounds";
    for i = 1 to len - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing"
    done
  end;
  register ?label ~bounds:(Array.copy bounds) Histogram name

(* Recording. The recorders below are inlined, so with both planes off a
   call site compiles to the flag test alone; label options and boxed
   floats are only built past it. *)

let slot tbl lv =
  match Hashtbl.find_opt tbl lv with
  | Some a -> a
  | None ->
    let a = fresh () in
    Hashtbl.replace tbl lv a;
    a

let record i lv f x =
  if !planes land 1 <> 0 then f i.total x;
  if !planes land 2 <> 0 && i.kind <> Wall_gauge then f (slot i.window lv) x

let bump a k = a.c <- a.c + k

let put a v =
  a.n <- 1;
  a.sum <- v

let summarize a v =
  a.n <- a.n + 1;
  a.sum <- a.sum +. v;
  if v < a.lo then a.lo <- v;
  if v > a.hi then a.hi <- v

let[@inline] add c k = if !planes <> 0 then record c None bump k
let[@inline] incr c = if !planes <> 0 then record c None bump 1
let[@inline] incr1 c l = if !planes <> 0 then record c (Some l) bump 1
let counter_value c = c.total.c

let[@inline] set_gauge g v = if !planes <> 0 then record g None put v
let gauge_value g = if g.total.n = 0 then Float.nan else g.total.sum

(* First bucket whose upper bound covers v; the extra final slot overflows. *)
let bucket_index bounds v =
  let len = Array.length bounds in
  if v > bounds.(len - 1) then len
  else begin
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if bounds.(mid) < v then search (mid + 1) hi else search lo mid
    in
    search 0 (len - 1)
  end

let observe_at h lv v =
  if enabled () then begin
    let i = bucket_index h.bounds v in
    h.buckets.(i) <- h.buckets.(i) + 1
  end;
  record h lv summarize v

let[@inline] observe h v = if !planes <> 0 then observe_at h None v

let[@inline] observe_int h v =
  if !planes <> 0 then observe_at h None (float_of_int v)

let[@inline] observe1 h l v = if !planes <> 0 then observe_at h (Some l) v

let hist_count h = h.total.n

let hist_mean h =
  if h.total.n = 0 then Float.nan else h.total.sum /. float_of_int h.total.n

let hist_min h = if h.total.n = 0 then Float.nan else h.total.lo
let hist_max h = if h.total.n = 0 then Float.nan else h.total.hi

let hist_percentile h p =
  if p < 0.0 || p > 100.0 then invalid_arg "Metrics.hist_percentile: out of range";
  if h.total.n = 0 then Float.nan
  else begin
    let target = p /. 100.0 *. float_of_int h.total.n in
    let len = Array.length h.buckets in
    let rec scan i acc =
      if i >= len then h.total.hi
      else
        let acc = acc + h.buckets.(i) in
        if float_of_int acc >= target then
          if i < Array.length h.bounds then
            (* An exact max is more informative than a bucket bound. *)
            Stdlib.min h.bounds.(i) h.total.hi
          else h.total.hi
        else scan (i + 1) acc
    in
    scan 0 0
  end

let sorted () =
  Hashtbl.fold (fun _ i acc -> i :: acc) registry []
  |> List.sort (fun a b -> String.compare a.name b.name)

let reset () =
  Hashtbl.iter
    (fun _ i ->
      let a = i.total in
      a.c <- 0;
      a.n <- 0;
      a.sum <- 0.0;
      a.lo <- Float.infinity;
      a.hi <- Float.neg_infinity;
      Array.fill i.buckets 0 (Array.length i.buckets) 0)
    registry

let snapshot () =
  let insts = sorted () in
  (* An instrument of [kind] appears once touched: a nonzero count, a set
     gauge, an observation. *)
  let pick kind f =
    Json.Obj
      (List.filter_map
         (fun i ->
           if i.kind = kind && (i.total.c <> 0 || i.total.n > 0) then
             Some (i.name, f i)
           else None)
         insts)
  in
  (* Consistent null-ing of everything JSON cannot represent: an
     observed [infinity] would otherwise put a [Json.Float inf] node in
     the tree, which prints as "null" but breaks structural round-trips
     through [Json.of_string]. *)
  let num f = if Float.is_finite f then Json.Float f else Json.Null in
  let last g = num g.total.sum in
  Json.Obj
    [
      ("counters", pick Counter (fun c -> Json.Int c.total.c));
      ("gauges", pick Gauge last);
      ( "histograms",
        pick Histogram (fun h ->
            Json.Obj
              [
                ("count", Json.Int h.total.n);
                ("mean", num (hist_mean h));
                ("min", num (hist_min h));
                ("max", num (hist_max h));
                ("p50", num (hist_percentile h 50.0));
                ("p90", num (hist_percentile h 90.0));
                ("p99", num (hist_percentile h 99.0));
              ]) );
      (* Everything derived from real time is quarantined under "wall"
         so baseline comparisons can skip the subtree wholesale. *)
      ("wall", Json.Obj [ ("gauges", pick Wall_gauge last) ]);
    ]

(* The series plane's view of the same instruments. *)

type sample =
  | Count of int
  | Last of float
  | Summary of { n : int; sum : float; lo : float; hi : float }

let reset_series () = Hashtbl.iter (fun _ i -> Hashtbl.reset i.window) registry

let drain_windows () =
  let drained =
    List.concat_map
      (fun i ->
        Hashtbl.fold (fun lv a acc -> (lv, a) :: acc) i.window []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (lv, a) ->
               let labels = match lv with None -> [] | Some v -> [ (i.key, v) ] in
               let value =
                 match i.kind with
                 | Counter -> Count a.c
                 | Gauge | Wall_gauge -> Last a.sum
                 | Histogram ->
                   Summary { n = a.n; sum = a.sum; lo = a.lo; hi = a.hi }
               in
               (i.name, labels, value)))
      (sorted ())
  in
  reset_series ();
  drained
