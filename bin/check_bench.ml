(* Shape check over the bench's --json output: parses the metrics
   document with [Obs.Json.of_string] and fails (exit 1) when an expected
   section is missing or a derived rate is broken. A rate is broken when
   it is NaN/inf (the emitter writes those as [null], so a literal NaN in
   the file means the emitter was bypassed) or outside [0, 1]. The claims
   a section reproduces are gated by the bench itself, next to the code
   that computes them; this tool knows no gauge names or thresholds.

   With --baseline BASELINE.json the gate additionally requires every
   expected section's deterministic numbers — counters, histograms,
   gauges, and derived total_messages — to be structurally identical to
   the committed baseline (wall-clock readings live in the snapshot's
   separate "wall" subtree and are never compared). This is the
   tracing-overhead gate: with tracing disabled, instrumentation must
   not change a single message count or recall value.

   Usage: check_bench FILE [--baseline BASELINE] SECTION [SECTION ...] *)

module Json = Obs.Json

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("check_bench: " ^ s); exit 1) fmt

let rate_fields = [ "lsh_cache_hit_rate"; "engine_cache_rate" ]

let check_rate ~section name = function
  | Json.Null -> () (* the section never exercised this counter pair *)
  | Json.Float f ->
    if not (Float.is_finite f) then
      fail "section %s: derived rate %s is not finite" section name;
    if f < 0.0 || f > 1.0 then
      fail "section %s: derived rate %s = %g outside [0, 1]" section name f
  | Json.Int i ->
    if i < 0 || i > 1 then
      fail "section %s: derived rate %s = %d outside [0, 1]" section name i
  | _ -> fail "section %s: derived rate %s is not a number" section name

let check_section ~name body =
  match Json.member "derived" body with
  | None -> fail "section %s has no derived block" name
  | Some derived ->
    List.iter
      (fun field ->
        match Json.member field derived with
        | None -> fail "section %s: derived block lacks %s" name field
        | Some v -> check_rate ~section:name field v)
      rate_fields;
    (match Json.member "total_messages" derived with
    | Some (Json.Int n) when n >= 0 -> ()
    | Some _ -> fail "section %s: total_messages is not a non-negative int" name
    | None -> fail "section %s: derived block lacks total_messages" name)

(* --- baseline bit-identity (the tracing-disabled overhead gate) --- *)

let obj_fields ~ctx key j =
  match Json.member key j with
  | Some (Json.Obj fields) -> fields
  | Some _ -> fail "%s: %S is not an object" ctx key
  | None -> fail "%s: missing %S" ctx key

(* Structural equality on parsed trees is exact: both sides came through
   [Json.of_string], floats were emitted with %.17g, and JSON cannot carry
   NaN, so polymorphic compare is safe. *)
let check_identical ~section ~what current baseline =
  List.iter
    (fun (key, v) ->
      match List.assoc_opt key baseline with
      | None -> fail "section %s: %s %s absent from baseline" section what key
      | Some bv ->
        if v <> bv then
          fail "section %s: %s %s differs from baseline (%s vs %s)" section
            what key
            (Json.to_string ~indent:0 v)
            (Json.to_string ~indent:0 bv))
    current;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key current) then
        fail "section %s: %s %s in baseline is missing" section what key)
    baseline

let check_against_baseline ~name current baseline =
  let metrics ~ctx body =
    match Json.member "metrics" body with
    | Some m -> m
    | None -> fail "%s: section %s has no metrics block" ctx name
  in
  let cm = metrics ~ctx:"current" current
  and bm = metrics ~ctx:"baseline" baseline in
  let fields key j = obj_fields ~ctx:("section " ^ name) key j in
  check_identical ~section:name ~what:"counter" (fields "counters" cm)
    (fields "counters" bm);
  check_identical ~section:name ~what:"histogram" (fields "histograms" cm)
    (fields "histograms" bm);
  (* Everything under "counters"/"gauges"/"histograms" is deterministic
     by construction: wall-clock readings (qps gauges) live in
     the snapshot's separate "wall" subtree, which is never compared. *)
  check_identical ~section:name ~what:"gauge" (fields "gauges" cm)
    (fields "gauges" bm);
  let total body ctx =
    match Json.member "derived" body with
    | None -> fail "%s: section %s has no derived block" ctx name
    | Some derived -> (
      match Json.member "total_messages" derived with
      | Some (Json.Int n) -> n
      | Some _ | None ->
        fail "%s: section %s lacks derived total_messages" ctx name)
  in
  let c = total current "current" and b = total baseline "baseline" in
  if c <> b then
    fail "section %s: total_messages %d differs from baseline %d" name c b

let load file =
  let text =
    (* Catch-all: any read failure (missing file, directory, permission,
       I/O error) must exit 1 with a message naming the file — never look
       like a pass or die with an unexplained backtrace. *)
    match In_channel.with_open_bin file In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> fail "cannot read %s: %s" file msg
    | exception exn -> fail "cannot read %s: %s" file (Printexc.to_string exn)
  in
  let doc =
    match Json.of_string text with
    | Ok doc -> doc
    | Error msg -> fail "%s is not valid metrics JSON: %s" file msg
  in
  (match Json.member "schema_version" doc with
  | Some (Json.Int 1) -> ()
  | Some _ -> fail "%s: unsupported schema_version (expected 1)" file
  | None -> fail "%s: missing schema_version" file);
  match Json.member "sections" doc with
  | Some (Json.Obj fields) -> fields
  | Some _ -> fail "%s: \"sections\" is not an object" file
  | None -> fail "%s: missing \"sections\"" file

let () =
  let baseline_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--baseline" :: path :: rest ->
      baseline_file := Some path;
      parse acc rest
    | [ "--baseline" ] ->
      prerr_endline "check_bench: --baseline requires a file argument";
      exit 2
    | arg :: rest -> parse (arg :: acc) rest
  in
  let file, expected =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | file :: (_ :: _ as sections) -> (file, sections)
    | _ ->
      prerr_endline
        "usage: check_bench FILE [--baseline BASELINE] SECTION [SECTION ...]";
      exit 2
  in
  let sections = load file in
  let baseline = Option.map load !baseline_file in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | None -> fail "expected section %s missing" name
      | Some body -> (
        check_section ~name body;
        match baseline with
        | None -> ()
        | Some base -> (
          match List.assoc_opt name base with
          | None -> fail "baseline lacks section %s" name
          | Some base_body -> check_against_baseline ~name body base_body)))
    expected;
  Printf.printf "check_bench: %s ok%s (%s)\n" file
    (match !baseline_file with
    | None -> ""
    | Some b -> Printf.sprintf ", bit-identical to %s" b)
    (String.concat ", " expected)
