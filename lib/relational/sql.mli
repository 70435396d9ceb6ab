(** SQL front-end: text → {!Query} trees.

    Covers the subset the paper uses (§2): conjunctive select-project-join
    with single-attribute selections and equi-joins. The paper's running
    query parses verbatim:

    {[
      Sql.parse_query ~lookup
        "Select Prescription.prescription \
         from Patient, Diagnosis, Prescription \
         where 30 < age < 50 \
         and diagnosis = 'Glaucoma' \
         and Patient.patient_id = Diagnosis.patient_id \
         and DATE '2000-01-01' <= date <= DATE '2002-12-31' \
         and Diagnosis.prescription_id = Prescription.prescription_id"
    ]}

    Restrictions (reported via {!Error}): every table after the first must
    be connected by an equi-join condition (no cross products), non-equi
    joins are unsupported, strict bounds require integer or date literals,
    and the SELECT list names each column once. *)

exception Error of string
(** {!Sql_lexer.Error} re-exported: any front-end failure (lexing, parsing,
    unknown tables/columns, ambiguous column references, type mismatches,
    unsupported shapes). *)

val parse : string -> Sql_ast.select
(** Syntax only. @raise Error. *)

val to_query : Sql_ast.select -> lookup:(string -> Schema.t) -> Query.t
(** Resolves names against the base schemas and builds the operator tree:
    scans joined table by table (each new table linked by one of the WHERE
    equi-join conditions), selections stacked above, projection on top.
    Run {!Planner.push_selections} on the result to move the selections
    back down to the leaves.

    Tables join in FROM order. [lookup] should raise [Not_found] for
    unknown tables.
    @raise Error. *)

val parse_query : string -> lookup:(string -> Schema.t) -> Query.t
(** [to_query (parse s) ~lookup]. *)
