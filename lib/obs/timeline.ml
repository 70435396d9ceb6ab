(* Parse [Series.to_jsonl] output back into points and marks and run the
   change-point checks CI gates on. Pure analysis over the file — nothing
   here touches the live recorder. *)

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
  points : point list;
  marks : mark list;
  dropped : int;
}

let get_int j key =
  match Json.member key j with Some (Json.Int n) -> Some n | _ -> None

let get_float j key =
  match Json.member key j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some Json.Null -> Some Float.nan
  | _ -> None

let get_string j key =
  match Json.member key j with Some (Json.String s) -> Some s | _ -> None

let parse_labels j =
  match Json.member "labels" j with
  | Some (Json.Obj fields) ->
    Some
      (List.filter_map
         (fun (k, v) -> match v with Json.String s -> Some (k, s) | _ -> None)
         fields)
  | _ -> None

let parse_line lineno j =
  let fail fmt =
    Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" lineno msg)) fmt
  in
  match get_string j "mark" with
  | Some name -> (
    match get_int j "at" with
    | None -> fail "mark without an integer \"at\""
    | Some at ->
      let attrs =
        match Json.member "attrs" j with Some (Json.Obj a) -> a | _ -> []
      in
      Ok (`Mark { at; name; attrs }))
  | None -> (
    match (get_int j "at", get_string j "metric", get_string j "type") with
    | Some at, Some metric, Some ty -> (
      let labels = Option.value ~default:[] (parse_labels j) in
      match ty with
      | "count" -> (
        match get_int j "value" with
        | Some v -> Ok (`Point { at; metric; labels; value = Count v })
        | None -> fail "count point without an integer \"value\"")
      | "gauge" -> (
        match get_float j "value" with
        | Some v -> Ok (`Point { at; metric; labels; value = Gauge v })
        | None -> fail "gauge point without a \"value\"")
      | "summary" -> (
        match
          (get_int j "n", get_float j "sum", get_float j "min", get_float j "max")
        with
        | Some n, Some sum, Some lo, Some hi ->
          Ok (`Point { at; metric; labels; value = Summary { n; sum; lo; hi } })
        | _ -> fail "summary point missing n/sum/min/max")
      | ty -> fail "unknown point type %S" ty)
    | _ -> fail "line is neither a point nor a mark")

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty series file"
  | header :: rest -> (
    match Json.of_string header with
    | Error msg -> Error ("header: " ^ msg)
    | Ok h ->
      if get_int h "schema_version" <> Some 1 then
        Error "header: unsupported schema_version"
      else if get_string h "kind" <> Some "p2prange.series" then
        Error "header: not a p2prange.series file"
      else begin
        let clock = Option.value ~default:0 (get_int h "clock") in
        let window = Option.value ~default:1 (get_int h "window") in
        let dropped = Option.value ~default:0 (get_int h "dropped") in
        let rec parse lineno acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
            match Json.of_string line with
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
            | Ok j -> (
              match parse_line lineno j with
              | Error _ as e -> e
              | Ok item -> parse (lineno + 1) (item :: acc) rest))
        in
        match parse 2 [] rest with
        | Error _ as e -> e
        | Ok items ->
          let points =
            List.filter_map (function `Point p -> Some p | `Mark _ -> None) items
          in
          let marks =
            List.filter_map (function `Mark m -> Some m | `Point _ -> None) items
          in
          Ok { clock; window; points; marks; dropped }
      end)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

(* Scalar projection of a point: a counter's window increment, a gauge's
   value, a summary's mean ([nan] when empty). *)
let value_of = function
  | Count c -> float_of_int c
  | Gauge v -> v
  | Summary { n; sum; _ } ->
    if n = 0 then Float.nan else sum /. float_of_int n

let selectors t =
  List.map (fun p -> (p.metric, p.labels)) t.points
  |> List.sort_uniq compare

let series t ~metric ~labels =
  List.filter_map
    (fun p ->
      if p.metric = metric && p.labels = labels then Some (p.at, value_of p.value)
      else None)
    t.points

let mark_ticks t name =
  List.filter_map (fun m -> if m.name = name then Some m.at else None) t.marks

(* Mean of a selector over windows with [from < at <= until]: summaries
   pool their underlying observations ([Σsum / Σn]); counts and gauges
   average per window. [None] when no window lands in the interval. *)
let weighted_mean t ~metric ~labels ~from ~until =
  let n = ref 0.0 and sum = ref 0.0 in
  List.iter
    (fun p ->
      if p.metric = metric && p.labels = labels && p.at > from && p.at <= until
      then
        match p.value with
        | Summary { n = sn; sum = ss; _ } ->
          n := !n +. float_of_int sn;
          sum := !sum +. ss
        | Count c ->
          n := !n +. 1.0;
          sum := !sum +. float_of_int c
        | Gauge v ->
          if Float.is_finite v then begin
            n := !n +. 1.0;
            sum := !sum +. v
          end)
    t.points;
  if !n = 0.0 then None else Some (!sum /. !n)

let describe metric labels =
  match labels with
  | [] -> metric
  | pairs ->
    metric ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) pairs)
    ^ "}"

let check_dip t ~metric ~labels ~mark ~within ~min_dip =
  let sel = describe metric labels in
  match mark_ticks t mark with
  | [] -> Error (Printf.sprintf "no %S mark in the series" mark)
  | m :: _ -> (
    match weighted_mean t ~metric ~labels ~from:(-1) ~until:m with
    | None -> Error (Printf.sprintf "%s has no windows before the %S mark" sel mark)
    | Some baseline -> (
      let after =
        List.filter (fun (at, _) -> at > m && at <= m + within)
          (series t ~metric ~labels)
      in
      if after = [] then
        Error
          (Printf.sprintf "%s has no windows within %d ticks after the %S mark"
             sel within mark)
      else
        let dip_at =
          List.find_opt (fun (_, v) -> v <= baseline -. min_dip) after
        in
        match dip_at with
        | Some (at, v) ->
          Ok
            (Printf.sprintf
               "%s dips to %.4f (baseline %.4f) by tick %d, %d ticks after the \
                %S mark at %d"
               sel v baseline at (at - m) mark m)
        | None ->
          let worst =
            List.fold_left (fun acc (_, v) -> Float.min acc v) Float.infinity after
          in
          Error
            (Printf.sprintf
               "%s never dips %.4f below its %.4f baseline within %d ticks of \
                the %S mark (lowest window %.4f)"
               sel min_dip baseline within mark worst)))

let check_converge t ~metric ~labels_a ~labels_b ~mark ~eps =
  match List.rev (mark_ticks t mark) with
  | [] -> Error (Printf.sprintf "no %S mark in the series" mark)
  | last :: _ -> (
    let a = weighted_mean t ~metric ~labels:labels_a ~from:last ~until:max_int in
    let b = weighted_mean t ~metric ~labels:labels_b ~from:last ~until:max_int in
    match (a, b) with
    | None, _ ->
      Error
        (Printf.sprintf "%s has no windows after the last %S mark"
           (describe metric labels_a) mark)
    | _, None ->
      Error
        (Printf.sprintf "%s has no windows after the last %S mark"
           (describe metric labels_b) mark)
    | Some va, Some vb ->
      let gap = Float.abs (va -. vb) in
      if gap <= eps then
        Ok
          (Printf.sprintf
             "%s converges to %s after the last %S mark at %d: %.4f vs %.4f \
              (gap %.4f <= %.4f)"
             (describe metric labels_a) (describe metric labels_b) mark last va
             vb gap eps)
      else
        Error
          (Printf.sprintf
             "%s vs %s after the last %S mark at %d: %.4f vs %.4f (gap %.4f > \
              %.4f)"
             (describe metric labels_a) (describe metric labels_b) mark last va
             vb gap eps))
