(* SQL front-end: lexer, parser and query construction — including the
   paper's §2 query verbatim (modulo its informal date syntax). *)

module S = Relational.Schema
module V = Relational.Value
module Q = Relational.Query
module P = Relational.Predicate
module Sql = Relational.Sql
module T = Relational.Sql_token

let patient = S.make [ ("patient_id", V.Tint); ("name", V.Tstring); ("age", V.Tint) ]
let diagnosis =
  S.make
    [ ("patient_id", V.Tint); ("diagnosis", V.Tstring); ("physician_id", V.Tint);
      ("prescription_id", V.Tint) ]
let prescription =
  S.make
    [ ("prescription_id", V.Tint); ("date", V.Tdate); ("prescription", V.Tstring) ]

let lookup = function
  | "Patient" -> patient
  | "Diagnosis" -> diagnosis
  | "Prescription" -> prescription
  | _ -> raise Not_found

(* --- lexer --- *)

let lex_basics () =
  let tokens = Relational.Sql_lexer.tokenize "select a.b, c from T where x <= 3" in
  Alcotest.(check (list string)) "token stream"
    [ "SELECT"; "a"; "."; "b"; ","; "c"; "FROM"; "T"; "WHERE"; "x"; "<="; "3"; "<eof>" ]
    (List.map T.to_string tokens)

let lex_strings_and_dates () =
  let tokens =
    Relational.Sql_lexer.tokenize "WHERE d = 'Glau''coma' AND t >= DATE '2000-01-01'"
  in
  Alcotest.(check bool) "escaped quote" true
    (List.exists (fun t -> T.equal t (T.String_lit "Glau'coma")) tokens);
  Alcotest.(check bool) "date literal" true
    (List.exists (fun t -> T.equal t (T.Date_lit (2000, 1, 1))) tokens)

let lex_keywords_case_insensitive () =
  let tokens = Relational.Sql_lexer.tokenize "SeLeCt * FrOm t" in
  Alcotest.(check (list string)) "case folded"
    [ "SELECT"; "*"; "FROM"; "t"; "<eof>" ]
    (List.map T.to_string tokens)

let lex_errors () =
  (try
     ignore (Relational.Sql_lexer.tokenize "select 'oops");
     Alcotest.fail "unterminated string must raise"
   with Sql.Error _ -> ());
  try
    ignore (Relational.Sql_lexer.tokenize "select #");
    Alcotest.fail "bad character must raise"
  with Sql.Error _ -> ()

(* --- parser --- *)

let parse_shape () =
  let s = Sql.parse "select x, T.y from T, U where x = 3 and T.k = U.k" in
  Alcotest.(check int) "two projections" 2
    (match s.Relational.Sql_ast.projection with Some l -> List.length l | None -> -1);
  Alcotest.(check (list string)) "tables" [ "T"; "U" ] s.Relational.Sql_ast.tables;
  Alcotest.(check int) "two conjuncts" 2 (List.length s.Relational.Sql_ast.conditions)

let parse_star_and_no_where () =
  let s = Sql.parse "select * from T" in
  Alcotest.(check bool) "star" true (s.Relational.Sql_ast.projection = None);
  Alcotest.(check int) "no conditions" 0 (List.length s.Relational.Sql_ast.conditions)

let parse_between () =
  let s = Sql.parse "select * from T where age between 30 and 50" in
  match s.Relational.Sql_ast.conditions with
  | [ Relational.Sql_ast.Between_cond (c, V.Int 30, V.Int 50) ] ->
    Alcotest.(check string) "column" "age" c.Relational.Sql_ast.name
  | _ -> Alcotest.fail "expected one BETWEEN condition"

let parse_chained_strict () =
  (* The paper's 30 < age < 50 tightens to [31, 49]. *)
  let s = Sql.parse "select * from T where 30 < age < 50" in
  match s.Relational.Sql_ast.conditions with
  | [ Relational.Sql_ast.Between_cond (c, V.Int 31, V.Int 49) ] ->
    Alcotest.(check string) "column" "age" c.Relational.Sql_ast.name
  | _ -> Alcotest.fail "expected chained comparison to normalize to BETWEEN"

let parse_chained_inclusive () =
  let s = Sql.parse "select * from T where 30 <= age <= 50" in
  match s.Relational.Sql_ast.conditions with
  | [ Relational.Sql_ast.Between_cond (_, V.Int 30, V.Int 50) ] -> ()
  | _ -> Alcotest.fail "inclusive chain keeps its bounds"

let parse_errors () =
  let expect_error input =
    try
      ignore (Sql.parse input);
      Alcotest.failf "%S must not parse" input
    with Sql.Error _ -> ()
  in
  expect_error "select from T";
  expect_error "select * from";
  expect_error "select * from T where";
  expect_error "select * from T where age";
  expect_error "select * from T where 30 < age > 50";
  expect_error "select * from T where age between 30";
  expect_error "select * from T trailing"

let oversized_int_literal () =
  let literal = "9999999999999999999999" in
  (match Sql.parse ("select * from Patient where 20 < " ^ literal) with
  | _ -> Alcotest.fail "an out-of-range literal must not parse"
  | exception Sql.Error message ->
    Alcotest.(check string) "message names the literal and its offset"
      ("lexical error at offset 33: integer literal " ^ literal
     ^ " is out of range")
      message);
  let s = Sql.parse (Printf.sprintf "select * from T where age <= %d" max_int) in
  match s.Relational.Sql_ast.conditions with
  | [ Relational.Sql_ast.Cmp (_, _, Relational.Sql_ast.Lit (V.Int v)) ] ->
    Alcotest.(check int) "max_int still parses" max_int v
  | _ -> Alcotest.fail "expected one comparison against max_int"

(* --- to_query on the paper's example --- *)

let paper_sql =
  "Select Prescription.prescription \
   from Patient, Diagnosis, Prescription \
   where 30 <= age <= 50 \
   and diagnosis = 'Glaucoma' \
   and Patient.patient_id = Diagnosis.patient_id \
   and DATE '2000-01-01' <= date <= DATE '2002-12-31' \
   and Diagnosis.prescription_id = Prescription.prescription_id"

let paper_query_builds () =
  let q = Sql.parse_query paper_sql ~lookup in
  Alcotest.(check (list string)) "relations in FROM order"
    [ "Patient"; "Diagnosis"; "Prescription" ]
    (Q.relations q);
  Alcotest.(check int) "three selections" 3 (List.length (Q.selections q));
  let schema = Q.schema_of q ~lookup in
  Alcotest.(check int) "single projected column" 1 (S.arity schema);
  Alcotest.(check bool) "prescription column" true (S.mem schema "prescription")

let paper_query_pushes_down () =
  let q = Sql.parse_query paper_sql ~lookup in
  let plan = Relational.Planner.push_selections q ~lookup in
  let leaves = Relational.Planner.leaf_selections plan in
  let find rel = List.assoc rel leaves in
  Alcotest.(check int) "age at Patient" 1 (List.length (find "Patient"));
  Alcotest.(check int) "diagnosis at Diagnosis" 1 (List.length (find "Diagnosis"));
  Alcotest.(check int) "date at Prescription" 1 (List.length (find "Prescription"))

let paper_query_executes () =
  (* Tiny database where the answer is known. *)
  let module R = Relational.Relation in
  let date y m d = V.date_of_ymd ~year:y ~month:m ~day:d in
  let patients =
    R.create ~name:"Patient" ~schema:patient
      [
        [| V.Int 1; V.String "ada"; V.Int 35 |];
        [| V.Int 2; V.String "bob"; V.Int 70 |];
      ]
  in
  let diagnoses =
    R.create ~name:"Diagnosis" ~schema:diagnosis
      [
        [| V.Int 1; V.String "Glaucoma"; V.Int 9; V.Int 100 |];
        [| V.Int 2; V.String "Glaucoma"; V.Int 9; V.Int 101 |];
      ]
  in
  let prescriptions =
    R.create ~name:"Prescription" ~schema:prescription
      [
        [| V.Int 100; date 2001 6 1; V.String "timolol" |];
        [| V.Int 101; date 2001 6 1; V.String "latanoprost" |];
      ]
  in
  let q = Sql.parse_query paper_sql ~lookup in
  let result =
    Relational.Executor.run q
      ~catalog:(Relational.Executor.of_relations [ patients; diagnoses; prescriptions ])
  in
  (* Only ada qualifies on age. *)
  match R.tuples result with
  | [ [| V.String "timolol" |] ] -> ()
  | _ -> Alcotest.fail "expected exactly ada's timolol prescription"

let date_strict_chain_tightens () =
  let q =
    Sql.parse_query
      "select * from Prescription where DATE '2000-01-01' < date < DATE '2000-01-10'"
      ~lookup
  in
  match Q.selections q with
  | [ { P.comparison = P.Between (V.Date lo, V.Date hi); _ } ] ->
    let day y m d =
      match V.date_of_ymd ~year:y ~month:m ~day:d with
      | V.Date n -> n
      | V.Int _ | V.Float _ | V.String _ -> assert false
    in
    Alcotest.(check int) "lower tightened" (day 2000 1 2) lo;
    Alcotest.(check int) "upper tightened" (day 2000 1 9) hi
  | _ -> Alcotest.fail "expected a date Between selection"

let resolution_errors () =
  let expect_error input =
    try
      ignore (Sql.parse_query input ~lookup);
      Alcotest.failf "%S must be rejected" input
    with Sql.Error _ -> ()
  in
  expect_error "select * from Nowhere";
  expect_error "select * from Patient where nonsense = 3";
  (* patient_id is in both Patient and Diagnosis: ambiguous unqualified. *)
  expect_error "select * from Patient, Diagnosis where patient_id = 3 and Patient.patient_id = Diagnosis.patient_id";
  (* type mismatch *)
  expect_error "select * from Patient where age = 'old'";
  (* cross product *)
  expect_error "select * from Patient, Prescription where age = 3";
  (* non-equi join *)
  expect_error
    "select * from Patient, Diagnosis where Patient.patient_id < Diagnosis.patient_id";
  (* strict bound on a string column *)
  expect_error "select * from Patient where name < 'm'";
  (* a column projected twice, written the same way or qualified once *)
  expect_error "select age, age from Patient";
  expect_error "select Patient.age, age from Patient"

let qualified_disambiguation () =
  (* patient_id appears in two tables; qualification picks one side.
     After the join, Diagnosis.patient_id is primed in the composite. *)
  let q =
    Sql.parse_query
      "select Diagnosis.patient_id from Patient, Diagnosis \
       where Patient.patient_id = Diagnosis.patient_id and age <= 40"
      ~lookup
  in
  let schema = Q.schema_of q ~lookup in
  Alcotest.(check bool) "primed column projected" true (S.mem schema "patient_id'")

let unqualified_unique_ok () =
  let q = Sql.parse_query "select name from Patient where 20 <= age <= 30" ~lookup in
  Alcotest.(check (list string)) "one relation" [ "Patient" ] (Q.relations q)

let suite =
  [
    Alcotest.test_case "lexer: basics" `Quick lex_basics;
    Alcotest.test_case "lexer: strings and dates" `Quick lex_strings_and_dates;
    Alcotest.test_case "lexer: case-insensitive keywords" `Quick
      lex_keywords_case_insensitive;
    Alcotest.test_case "lexer: error cases" `Quick lex_errors;
    Alcotest.test_case "parser: projection/tables/conjuncts" `Quick parse_shape;
    Alcotest.test_case "parser: star, missing where" `Quick parse_star_and_no_where;
    Alcotest.test_case "parser: BETWEEN" `Quick parse_between;
    Alcotest.test_case "parser: chained strict comparison" `Quick
      parse_chained_strict;
    Alcotest.test_case "parser: chained inclusive comparison" `Quick
      parse_chained_inclusive;
    Alcotest.test_case "parser: syntax errors" `Quick parse_errors;
    Alcotest.test_case "parser: out-of-range integer literal" `Quick
      oversized_int_literal;
    Alcotest.test_case "paper query builds" `Quick paper_query_builds;
    Alcotest.test_case "paper query pushes selections down" `Quick
      paper_query_pushes_down;
    Alcotest.test_case "paper query executes correctly" `Quick
      paper_query_executes;
    Alcotest.test_case "strict date chain tightens by one day" `Quick
      date_strict_chain_tightens;
    Alcotest.test_case "resolution and type errors" `Quick resolution_errors;
    Alcotest.test_case "qualified disambiguation (primed columns)" `Quick
      qualified_disambiguation;
    Alcotest.test_case "unqualified unique column resolves" `Quick
      unqualified_unique_ok;
  ]
