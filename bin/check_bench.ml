(* CI gate over the bench's --json output: parses the metrics document
   with [Obs.Json.of_string] and fails (exit 1) when an expected section
   is missing or a derived rate is broken. A rate is broken when it is
   NaN/inf (the emitter writes those as [null], so a literal NaN in the
   file means the emitter was bypassed) or outside [0, 1].

   With --baseline BASELINE.json the gate additionally requires every
   expected section's deterministic numbers — counters, histograms,
   gauges, and derived total_messages — to be structurally identical to
   the committed baseline (wall-clock readings live in the snapshot's
   separate "wall" subtree and are never compared). This is the
   tracing-overhead gate: with tracing disabled, instrumentation must
   not change a single message count or recall value.

   With --series SERIES.jsonl the gate additionally runs the chaos
   change-point checks on the metric timeline (see [check_series]).

   Usage: check_bench FILE [--baseline BASELINE] [--series SERIES]
            SECTION [SECTION ...] *)

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

let gauge ~section body name =
  match Json.member "metrics" body with
  | None -> fail "section %s has no metrics block" section
  | Some metrics -> (
    match Json.member "gauges" metrics with
    | None -> fail "section %s has no gauges block" section
    | Some gauges -> (
      match Json.member name gauges with
      | Some (Json.Float f) when Float.is_finite f -> f
      | Some (Json.Int i) -> float_of_int i
      | Some _ -> fail "%s gauge %s is not a finite number" section name
      | None -> fail "%s gauge %s missing (never set)" section name))

(* Robustness floor for the faults section: the retry/backoff machinery
   must recover at least this much recall over retry-disabled routing at
   the acceptance cell (drop 0.1, 10% crashed, seed 42). *)
let min_recall_gap = 0.15

let check_faults_gauges body =
  let gauge = gauge ~section:"faults" body in
  let off = gauge "faults.bench.recall_retry_off" in
  let on = gauge "faults.bench.recall_retry_on" in
  if on -. off < min_recall_gap then
    fail
      "faults: retry-enabled routing recovers only %.3f recall over \
       retry-disabled (%.3f -> %.3f); floor is %.2f"
      (on -. off) off on min_recall_gap

(* Acceptance bars for the batched query pipeline at the Zipf / batch-64
   cell (seed 42): batching must cut messages per query by at least a
   quarter, must not move recall, and a batch of one must replay the
   single-query path bit-for-bit. *)
let min_batch_reduction = 0.25
let max_batch_recall_drift = 0.01

let check_batch_gauges body =
  let gauge = gauge ~section:"batch" body in
  let reduction = gauge "batch.bench.reduction" in
  if reduction < min_batch_reduction then
    fail
      "batch: batching saves only %.1f%% of messages per query at batch 64 \
       under Zipf; floor is %.0f%%"
      (100.0 *. reduction)
      (100.0 *. min_batch_reduction);
  let unbatched = gauge "batch.bench.recall_unbatched" in
  let batched = gauge "batch.bench.recall_batch64" in
  if Float.abs (batched -. unbatched) > max_batch_recall_drift then
    fail "batch: batching moved recall %.3f -> %.3f (tolerance %.2f)"
      unbatched batched max_batch_recall_drift;
  if gauge "batch.bench.bit_identical" <> 1.0 then
    fail "batch: a batch of one is not bit-identical to single queries"

(* Acceptance bars for range migration under Zipf at seed 42: migrating
   slices must genuinely flatten load (below the unbalanced run, and —
   alone or composed with replication — at or below the replication-only
   figure), while staying invisible in answers: fault-free recall may
   not drift from the unbalanced run by more than a hair. *)
let max_migration_recall_drift = 0.01

let check_migration_gauges body =
  let gauge = gauge ~section:"migration" body in
  if gauge "migration.bench.migrations" < 1.0 then
    fail "migration: the planner never migrated a slice";
  let imb_off = gauge "migration.bench.imbalance_off" in
  let imb_replicate = gauge "migration.bench.imbalance_replicate" in
  let imb_migrate = gauge "migration.bench.imbalance_migrate" in
  let imb_both = gauge "migration.bench.imbalance_both" in
  if imb_migrate >= imb_off then
    fail "migration: imbalance %.2f not improved over unbalanced %.2f"
      imb_migrate imb_off;
  if Float.min imb_migrate imb_both > imb_replicate then
    fail
      "migration: neither migrate (%.2f) nor replicate-and-migrate (%.2f) \
       reaches the replication-only imbalance %.2f"
      imb_migrate imb_both imb_replicate;
  let rec_off = gauge "migration.bench.recall_off" in
  let rec_migrate = gauge "migration.bench.recall_migrate" in
  if Float.abs (rec_migrate -. rec_off) > max_migration_recall_drift then
    fail "migration: migration moved recall %.3f -> %.3f (tolerance %.2f)"
      rec_off rec_migrate max_migration_recall_drift

(* Acceptance bars for the routing-substrate race at 10^3 peers, seed 42:
   the learned index must strictly beat Chord's mean hop count (in both
   the steady and the churn phase — staleness fallbacks included), must
   return the very same answers (recall drift within a hair, and the
   stripped result streams literally equal), and must actually have
   exercised the staleness machinery during the churn phase. *)
let max_substrate_recall_drift = 0.01

let check_substrate_gauges body =
  let gauge = gauge ~section:"substrate" body in
  let hops_chord = gauge "substrate.bench.hops_chord" in
  let hops_learned = gauge "substrate.bench.hops_learned" in
  if hops_learned >= hops_chord then
    fail "substrate: learned mean hops %.2f not below chord %.2f" hops_learned
      hops_chord;
  let churn_chord = gauge "substrate.bench.churn_hops_chord" in
  let churn_learned = gauge "substrate.bench.churn_hops_learned" in
  if churn_learned >= churn_chord then
    fail "substrate: under churn, learned mean hops %.2f not below chord %.2f"
      churn_learned churn_chord;
  let recall_chord = gauge "substrate.bench.recall_chord" in
  let recall_learned = gauge "substrate.bench.recall_learned" in
  if Float.abs (recall_learned -. recall_chord) > max_substrate_recall_drift
  then
    fail "substrate: substrate moved recall %.3f -> %.3f (tolerance %.2f)"
      recall_chord recall_learned max_substrate_recall_drift;
  if gauge "substrate.bench.identical_answers" <> 1.0 then
    fail "substrate: the two substrates returned different answers";
  if gauge "substrate.bench.stale_lookups" < 1.0 then
    fail "substrate: churn phase never took the stale-fallback path";
  if gauge "substrate.bench.retrains" < 1.0 then
    fail "substrate: churn phase never retrained the model"

(* Acceptance bars for the chaos soak (partition -> heal -> crash ->
   recover, seed 42): cutting an 8/64-peer island must visibly dent
   recall against the fault-free twin on the same stream; hinted handoff
   and anti-entropy must actually fire (partitioned sends, parked hints,
   degraded hint serves, replays, repair passes all nonzero); the
   invariant checker must stay silent at every phase boundary; and after
   the last repair the chaos system must land within a hair of its
   twin's recall. *)
let min_chaos_partition_dip = 0.05
let max_chaos_final_gap = 0.01

let check_chaos_gauges body =
  let gauge = gauge ~section:"chaos" body in
  let dip =
    gauge "chaos.bench.recall_twin_partition"
    -. gauge "chaos.bench.recall_partition"
  in
  if dip < min_chaos_partition_dip then
    fail
      "chaos: partitioning the island dented recall by only %.3f against the \
       fault-free twin; floor is %.2f"
      dip min_chaos_partition_dip;
  let gap = gauge "chaos.bench.recall_gap_final" in
  if gap > max_chaos_final_gap then
    fail
      "chaos: post-repair recall still %.4f away from the fault-free twin \
       (tolerance %.2f)"
      gap max_chaos_final_gap;
  if gauge "chaos.bench.invariant_violations" <> 0.0 then
    fail "chaos: check_invariants reported violations at a phase boundary";
  List.iter
    (fun name ->
      if gauge name < 1.0 then fail "chaos: %s never moved" name)
    [
      "chaos.bench.partitioned_sends"; "chaos.bench.hints_parked";
      "chaos.bench.hint_serves"; "chaos.bench.hints_replayed";
      "chaos.bench.repairs";
    ]

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
     by construction: wall-clock readings (timers, qps gauges) live in
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

(* --- change-point gates on the chaos series (--series FILE) ---

   Shape checks on the metric timeline the chaos bench records with
   --series: against the fault-free twin on the same stream,
   (1) the chaos system's recall must begin dipping within 256 logical
       ticks of the faults.partition mark (at least 0.05 below its
       pre-partition baseline), and
   (2) after the last system.repair mark the chaos and twin recall
       curves must agree to within 0.01.
   Both read the labelled chaos.recall summaries via [Obs.Timeline]. *)

let series_dip_within = 256
let series_min_dip = 0.05
let series_converge_eps = 0.01

let check_series file =
  let t =
    match Obs.Timeline.load file with
    | Ok t -> t
    | Error msg -> fail "%s" msg
  in
  let verdict label = function
    | Ok msg -> Printf.printf "check_bench: series %s: %s\n" label msg
    | Error msg -> fail "series %s: %s" label msg
  in
  verdict "dip"
    (Obs.Timeline.check_dip t ~metric:"chaos.recall"
       ~labels:[ ("sys", "chaos") ] ~mark:"faults.partition"
       ~within:series_dip_within ~min_dip:series_min_dip);
  verdict "converge"
    (Obs.Timeline.check_converge t ~metric:"chaos.recall"
       ~labels_a:[ ("sys", "chaos") ]
       ~labels_b:[ ("sys", "twin") ]
       ~mark:"system.repair" ~eps:series_converge_eps)

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
  let series_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--baseline" :: path :: rest ->
      baseline_file := Some path;
      parse acc rest
    | [ "--baseline" ] ->
      prerr_endline "check_bench: --baseline requires a file argument";
      exit 2
    | "--series" :: path :: rest ->
      series_file := Some path;
      parse acc rest
    | [ "--series" ] ->
      prerr_endline "check_bench: --series requires a file argument";
      exit 2
    | arg :: rest -> parse (arg :: acc) rest
  in
  let file, expected =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | file :: (_ :: _ as sections) -> (file, sections)
    | _ ->
      prerr_endline
        "usage: check_bench FILE [--baseline BASELINE] [--series SERIES] \
         SECTION [SECTION ...]";
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
        if name = "faults" then check_faults_gauges body;
        if name = "batch" then check_batch_gauges body;
        if name = "migration" then check_migration_gauges body;
        if name = "substrate" then check_substrate_gauges body;
        if name = "chaos" then check_chaos_gauges body;
        match baseline with
        | None -> ()
        | Some base -> (
          match List.assoc_opt name base with
          | None -> fail "baseline lacks section %s" name
          | Some base_body -> check_against_baseline ~name body base_body)))
    expected;
  Option.iter check_series !series_file;
  Printf.printf "check_bench: %s ok%s%s (%s)\n" file
    (match !baseline_file with
    | None -> ""
    | Some b -> Printf.sprintf ", bit-identical to %s" b)
    (match !series_file with
    | None -> ""
    | Some s -> Printf.sprintf ", series gates on %s" s)
    (String.concat ", " expected)
