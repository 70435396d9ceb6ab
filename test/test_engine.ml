(* End-to-end engine: the paper's §2 flow — first execution fetches from
   sources and publishes partitions; re-execution is served from the cache;
   approximate answers are subsets with the estimated recall. *)

module Q = Relational.Query
module P = Relational.Predicate
module S = Relational.Schema
module R = Relational.Relation
module V = Relational.Value
module Range = Rangeset.Range
module E = P2prange.Engine

let mk lo hi = Range.make ~lo ~hi
let date y m d = V.date_of_ymd ~year:y ~month:m ~day:d

let patient_schema =
  S.make [ ("patient_id", V.Tint); ("name", V.Tstring); ("age", V.Tint) ]

let patients =
  R.create ~name:"Patient" ~schema:patient_schema
    (List.init 100 (fun i ->
         [| V.Int i; V.String (Printf.sprintf "p%d" i); V.Int (i mod 90) |]))

let diagnosis_schema =
  S.make [ ("patient_id", V.Tint); ("diagnosis", V.Tstring); ("prescription_id", V.Tint) ]

let diagnoses =
  R.create ~name:"Diagnosis" ~schema:diagnosis_schema
    (List.init 100 (fun i ->
         [|
           V.Int i;
           V.String (if i mod 3 = 0 then "Glaucoma" else "Asthma");
           V.Int (1000 + i);
         |]))

let prescription_schema =
  S.make [ ("prescription_id", V.Tint); ("date", V.Tdate); ("prescription", V.Tstring) ]

let prescriptions =
  R.create ~name:"Prescription" ~schema:prescription_schema
    (List.init 100 (fun i ->
         [|
           V.Int (1000 + i);
           date (1998 + (i mod 6)) ((i mod 12) + 1) ((i mod 28) + 1);
           V.String (Printf.sprintf "rx%d" i);
         |]))

let day y m d =
  match date y m d with
  | V.Date n -> n
  | V.Int _ | V.Float _ | V.String _ -> assert false

let build () =
  E.create ~seed:21L ~n_peers:12
    ~sources:[ patients; diagnoses; prescriptions ]
    ~rangeable:
      [
        (("Patient", "age"), mk 0 120);
        (("Prescription", "date"), mk (day 1995 1 1) (day 2005 12 31));
      ]
    ()

let age_query lo hi =
  Q.select (P.make ~attribute:"age" (P.Between (V.Int lo, V.Int hi))) (Q.scan "Patient")

let first_run_fetches_from_source () =
  let e = build () in
  let a = E.execute e ~from_name:"peer-0" (age_query 30 50) in
  Alcotest.(check int) "one leaf" 1 (List.length a.E.leaves);
  (match (List.hd a.E.leaves).E.provenance with
  | E.From_source { published = true } -> ()
  | E.From_source _ | E.From_cache _ | E.From_exact_dht _ | E.Full_relation ->
    Alcotest.fail "first run must fetch from the source and publish");
  Alcotest.(check int) "one source fetch" 1 a.E.source_fetches;
  Alcotest.(check (float 1e-9)) "exact recall" 1.0 a.E.recall_estimate;
  (* Ages cycle mod 90 over 100 patients: ages 30..50 appear twice for
     30..39? — count directly instead. *)
  let expected =
    R.cardinality
      (R.filter patients (fun t ->
           match R.get t patient_schema "age" with
           | V.Int n -> 30 <= n && n <= 50
           | V.Float _ | V.String _ | V.Date _ -> false))
  in
  Alcotest.(check int) "exact answer size" expected (R.cardinality a.E.result)

let second_run_hits_cache () =
  let e = build () in
  let _ = E.execute e ~from_name:"peer-0" (age_query 30 50) in
  let b = E.execute e ~from_name:"peer-3" (age_query 30 50) in
  (match (List.hd b.E.leaves).E.provenance with
  | E.From_cache qr ->
    Alcotest.(check (float 1e-9)) "cache hit exact" 1.0 qr.P2prange.Query_result.recall
  | E.From_source _ | E.From_exact_dht _ | E.Full_relation ->
    Alcotest.fail "identical re-query must be served from the cache");
  Alcotest.(check int) "no source fetch" 0 b.E.source_fetches

let approximate_answer_is_subset () =
  let e = build () in
  let _ = E.execute e ~from_name:"peer-0" (age_query 30 50) in
  (* A near-identical query without source access: answered (perhaps
     partially) from the cached [30,50] partition. *)
  let c = E.execute e ~from_name:"peer-1" ~allow_source:false (age_query 31 52) in
  let exact =
    R.filter patients (fun t ->
        match R.get t patient_schema "age" with
        | V.Int n -> 31 <= n && n <= 52
        | V.Float _ | V.String _ | V.Date _ -> false)
  in
  let subset a b =
    List.for_all (fun t -> List.mem t (R.tuples b)) (R.tuples a)
  in
  Alcotest.(check bool) "approximate ⊆ exact" true (subset c.E.result exact);
  Alcotest.(check bool) "recall estimate in [0,1]" true
    (0.0 <= c.E.recall_estimate && c.E.recall_estimate <= 1.0);
  Alcotest.(check int) "no source touched" 0 c.E.source_fetches

let string_equality_uses_exact_dht () =
  let e = build () in
  let q =
    Q.select
      (P.make ~attribute:"diagnosis" (P.Eq (V.String "Glaucoma")))
      (Q.scan "Diagnosis")
  in
  let a = E.execute e ~from_name:"peer-0" q in
  (match (List.hd a.E.leaves).E.provenance with
  | E.From_exact_dht { hit = false } -> ()
  | E.From_exact_dht _ | E.From_cache _ | E.From_source _ | E.Full_relation ->
    Alcotest.fail "string equality goes through the exact-match DHT (miss)");
  Alcotest.(check int) "34 glaucoma rows" 34 (R.cardinality a.E.result);
  let b = E.execute e ~from_name:"peer-5" q in
  match (List.hd b.E.leaves).E.provenance with
  | E.From_exact_dht { hit = true } ->
    Alcotest.(check int) "same rows from cache" 34 (R.cardinality b.E.result)
  | E.From_exact_dht _ | E.From_cache _ | E.From_source _ | E.Full_relation ->
    Alcotest.fail "second string-equality query must hit"

let join_over_p2p_leaves () =
  let e = build () in
  let q =
    Q.project [ "prescription" ]
      (Q.select
         (P.make ~attribute:"age" (P.Between (V.Int 20, V.Int 60)))
         (Q.select
            (P.make ~attribute:"diagnosis" (P.Eq (V.String "Glaucoma")))
            (Q.join
               ~left:
                 (Q.join ~left:(Q.scan "Patient") ~right:(Q.scan "Diagnosis")
                    ~on:("patient_id", "patient_id"))
               ~right:(Q.scan "Prescription")
               ~on:("prescription_id", "prescription_id"))))
  in
  let a = E.execute e ~from_name:"peer-0" q in
  Alcotest.(check int) "three leaves" 3 (List.length a.E.leaves);
  (* Verify against a direct local execution on the sources. *)
  let expected =
    Relational.Executor.run q
      ~catalog:(Relational.Executor.of_relations [ patients; diagnoses; prescriptions ])
  in
  Alcotest.(check int) "matches local execution"
    (R.cardinality expected) (R.cardinality a.E.result);
  Alcotest.(check bool) "messages were spent" true (a.E.messages > 0)

let no_selection_reads_full_relation () =
  let e = build () in
  let a = E.execute e ~from_name:"peer-0" (Q.scan "Patient") in
  (match (List.hd a.E.leaves).E.provenance with
  | E.Full_relation -> ()
  | E.From_cache _ | E.From_source _ | E.From_exact_dht _ ->
    Alcotest.fail "scan without selection reads the source");
  Alcotest.(check int) "all tuples" 100 (R.cardinality a.E.result)

let sql_interface () =
  let e = build () in
  let a =
    E.execute_sql e ~from_name:"peer-0"
      "select name from Patient where 30 <= age <= 50"
  in
  (match (List.hd a.E.leaves).E.provenance with
  | E.From_source { published = true } -> ()
  | E.From_source _ | E.From_cache _ | E.From_exact_dht _ | E.Full_relation ->
    Alcotest.fail "SQL leaf must go through the range protocol");
  let expected =
    R.cardinality
      (R.filter patients (fun t ->
           match R.get t patient_schema "age" with
           | V.Int n -> 30 <= n && n <= 50
           | V.Float _ | V.String _ | V.Date _ -> false))
  in
  Alcotest.(check int) "SQL answer size" expected (R.cardinality a.E.result);
  (* A three-table join in FROM order matches a local run of the same
     statement on the sources. *)
  let sql =
    "select prescription from Patient, Diagnosis, Prescription \
     where 30 <= age <= 50 \
     and Patient.patient_id = Diagnosis.patient_id \
     and Diagnosis.prescription_id = Prescription.prescription_id"
  in
  let joined = E.execute_sql e ~from_name:"peer-2" sql in
  let expected =
    Relational.Executor.run
      (Relational.Sql.parse_query sql ~lookup:(fun name ->
           R.schema (E.source e name)))
      ~catalog:
        (Relational.Executor.of_relations [ patients; diagnoses; prescriptions ])
  in
  Alcotest.(check int) "SQL join matches local execution"
    (R.cardinality expected) (R.cardinality joined.E.result)

let validation () =
  Alcotest.check_raises "unknown rangeable relation"
    (Invalid_argument "Engine.create: rangeable pair names an unknown relation")
    (fun () ->
      ignore
        (E.create ~seed:1L ~n_peers:3 ~sources:[ patients ]
           ~rangeable:[ (("Nope", "x"), mk 0 1) ]
           ()));
  Alcotest.check_raises "unknown rangeable attribute"
    (Invalid_argument "Engine.create: rangeable pair names an unknown attribute")
    (fun () ->
      ignore
        (E.create ~seed:1L ~n_peers:3 ~sources:[ patients ]
           ~rangeable:[ (("Patient", "height"), mk 0 1) ]
           ()))

(* The SQL boundary, by generation: valid SPJ statements over the
   fixture, each mutated by one to three token deletions, insertions or
   replacements and sometimes cut short. Whatever the text, execute_sql
   answers or raises the front-end's one documented exception. *)

let sql_statements =
  List.map (String.split_on_char ' ')
    [
      "select name from Patient where 30 <= age <= 50";
      "select * from Patient where age between 20 and 40";
      "select Patient . name , diagnosis from Patient , Diagnosis where \
       Patient . patient_id = Diagnosis . patient_id and diagnosis = 'Glaucoma'";
      "select prescription from Patient , Diagnosis , Prescription where \
       30 < age < 50 and Patient . patient_id = Diagnosis . patient_id and \
       DATE '2000-01-01' <= date <= DATE '2002-12-31' and \
       Diagnosis . prescription_id = Prescription . prescription_id";
      "select date , prescription from Prescription where date >= DATE \
       '2001-06-30'";
    ]

let sql_vocabulary =
  [
    "select"; "from"; "where"; "and"; "between"; "DATE"; "Patient";
    "Diagnosis"; "Prescription"; "Nope"; "age"; "name"; "patient_id";
    "diagnosis"; "date"; "prescription"; "prescription_id"; "=";
    "<"; ">"; "<="; ">="; "*"; ","; "."; "("; ")"; "'"; "''"; "'Glaucoma'";
    "'2000-01-01'"; "'2000-13'"; "#"; "30"; "2.5"; "9999999999999999999999";
  ]

(* A case is the mutated token list and an optional cut: the statement is
   the tokens joined by spaces, truncated to the cut's length. *)
let sql_text (tokens, cut) =
  let text = String.concat " " tokens in
  match cut with
  | None -> text
  | Some n -> String.sub text 0 (min n (String.length text))

let sql_case_gen =
  let open QCheck.Gen in
  (* Delete the token at [at], insert a word before it, or replace it. *)
  let mutate tokens =
    let* at = int_bound (List.length tokens - 1) in
    let* w = oneofl sql_vocabulary in
    let* edit = oneofl [ (fun _ -> []); (fun t -> [ w; t ]); (fun _ -> [ w ]) ] in
    return (List.concat (List.mapi (fun i t -> if i = at then edit t else [ t ]) tokens))
  in
  let* tokens = oneofl sql_statements in
  let* k = int_range 1 3 in
  let rec apply k tokens =
    if k = 0 then return tokens else mutate tokens >>= apply (k - 1)
  in
  let* tokens = apply k tokens in
  let length = String.length (String.concat " " tokens) in
  let* cut = option ~ratio:0.25 (int_bound length) in
  return (tokens, cut)

let sql_case_shrink (tokens, cut) =
  let open QCheck.Iter in
  map (fun tokens -> (tokens, cut)) (QCheck.Shrink.list tokens)
  <+> match cut with None -> empty | Some _ -> return (tokens, None)

let prop_sql_boundary =
  let engine = lazy (build ()) in
  QCheck.Test.make ~name:"execute_sql answers or raises Sql.Error" ~count:2000
    (QCheck.make ~print:(fun c -> Printf.sprintf "%S" (sql_text c))
       ~shrink:sql_case_shrink sql_case_gen)
    (fun case ->
      let text = sql_text case in
      match E.execute_sql (Lazy.force engine) ~from_name:"peer-0" text with
      | (_ : E.answer) -> true
      | exception Relational.Sql.Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%S escaped as %s" text (Printexc.to_string e))

let suite =
  [
    Alcotest.test_case "first run fetches from source and publishes" `Quick
      first_run_fetches_from_source;
    Alcotest.test_case "identical re-query served from cache" `Quick
      second_run_hits_cache;
    Alcotest.test_case "approximate answers are subsets" `Quick
      approximate_answer_is_subset;
    Alcotest.test_case "string equality via exact-match DHT" `Quick
      string_equality_uses_exact_dht;
    Alcotest.test_case "three-leaf join over P2P leaves" `Quick
      join_over_p2p_leaves;
    Alcotest.test_case "scan without selection reads the source" `Quick
      no_selection_reads_full_relation;
    Alcotest.test_case "SQL interface" `Quick sql_interface;
    Alcotest.test_case "construction validation" `Quick validation;
    QCheck_alcotest.to_alcotest prop_sql_boundary;
  ]
