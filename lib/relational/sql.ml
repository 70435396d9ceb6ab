exception Error = Sql_lexer.Error

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let parse = Sql_parser.parse

(* --- name resolution --- *)

type env = {
  tables : (string * Schema.t) list; (* FROM order *)
}

let make_env tables ~lookup =
  if tables = [] then fail "FROM list is empty";
  let distinct = List.sort_uniq String.compare tables in
  if List.length distinct <> List.length tables then
    fail "duplicate table in FROM (self-joins are unsupported)";
  {
    tables =
      List.map
        (fun t ->
          match lookup t with
          | schema -> (t, schema)
          | exception Not_found -> fail "unknown table %s" t)
        tables;
  }

(* Resolve a possibly-qualified column to (table, column). *)
let resolve env (c : Sql_ast.column) =
  match c.Sql_ast.table with
  | Some t -> (
    match List.assoc_opt t env.tables with
    | None -> fail "column %s.%s references a table not in FROM" t c.Sql_ast.name
    | Some schema ->
      if Schema.mem schema c.Sql_ast.name then (t, c.Sql_ast.name)
      else fail "table %s has no column %s" t c.Sql_ast.name)
  | None -> (
    match
      List.filter (fun (_, schema) -> Schema.mem schema c.Sql_ast.name) env.tables
    with
    | [ (t, _) ] -> (t, c.Sql_ast.name)
    | [] -> fail "unknown column %s" c.Sql_ast.name
    | _ :: _ :: _ -> fail "ambiguous column %s (qualify it)" c.Sql_ast.name)

(* --- condition classification --- *)

type selection = {
  sel_table : string;
  sel_column : string;
  comparison : Predicate.comparison;
}

type join_cond = { left : string * string; right : string * string }

let column_type env (table, column) =
  Schema.type_of_column (List.assoc table env.tables) column

let check_types env col lit context =
  let col_ty = column_type env col in
  let lit_ty = Value.type_of lit in
  if col_ty <> lit_ty then
    fail "%s: column %s.%s is %s but the literal is %s" context (fst col)
      (snd col) (Value.ty_name col_ty) (Value.ty_name lit_ty)

let strict_pred ~upper col lit =
  (* col < lit (upper) or col > lit (lower), tightened into the inclusive
     Predicate forms; only exact (integer-ranked) types can tighten. *)
  match (lit, upper) with
  | Value.Int n, true -> Predicate.At_most (Value.Int (n - 1))
  | Value.Int n, false -> Predicate.At_least (Value.Int (n + 1))
  | Value.Date d, true -> Predicate.At_most (Value.Date (d - 1))
  | Value.Date d, false -> Predicate.At_least (Value.Date (d + 1))
  | (Value.Float _ | Value.String _), _ ->
    fail "strict comparison on %s.%s needs an integer or date literal"
      (fst col) (snd col)

let selection_of_cmp env col op lit ~flipped =
  (* [flipped] means the source read [lit op col]. *)
  let op =
    if not flipped then op
    else
      match op with
      | Sql_ast.Clt -> Sql_ast.Cgt
      | Sql_ast.Cgt -> Sql_ast.Clt
      | Sql_ast.Cle -> Sql_ast.Cge
      | Sql_ast.Cge -> Sql_ast.Cle
      | Sql_ast.Ceq -> Sql_ast.Ceq
  in
  check_types env col lit "comparison";
  let comparison =
    match op with
    | Sql_ast.Ceq -> Predicate.Eq lit
    | Sql_ast.Cle -> Predicate.At_most lit
    | Sql_ast.Cge -> Predicate.At_least lit
    | Sql_ast.Clt -> strict_pred ~upper:true col lit
    | Sql_ast.Cgt -> strict_pred ~upper:false col lit
  in
  { sel_table = fst col; sel_column = snd col; comparison }

let classify env conditions =
  List.fold_left
    (fun (selections, joins) condition ->
      match condition with
      | Sql_ast.Between_cond (c, lo, hi) ->
        let col = resolve env c in
        check_types env col lo "BETWEEN";
        check_types env col hi "BETWEEN";
        if Value.compare lo hi > 0 then
          fail "empty BETWEEN bounds on %s.%s" (fst col) (snd col);
        ( { sel_table = fst col;
            sel_column = snd col;
            comparison = Predicate.Between (lo, hi);
          }
          :: selections,
          joins )
      | Sql_ast.Cmp (Sql_ast.Col a, Sql_ast.Ceq, Sql_ast.Col b) ->
        let left = resolve env a and right = resolve env b in
        if fst left = fst right then
          fail "join condition %a relates a table to itself"
            (fun ppf () -> Sql_ast.pp_condition ppf condition) ();
        (selections, { left; right } :: joins)
      | Sql_ast.Cmp (Sql_ast.Col _, (Sql_ast.Clt | Sql_ast.Cgt | Sql_ast.Cle | Sql_ast.Cge), Sql_ast.Col _) ->
        fail "non-equi joins are unsupported"
      | Sql_ast.Cmp (Sql_ast.Col c, op, Sql_ast.Lit v) ->
        (selection_of_cmp env (resolve env c) op v ~flipped:false :: selections, joins)
      | Sql_ast.Cmp (Sql_ast.Lit v, op, Sql_ast.Col c) ->
        (selection_of_cmp env (resolve env c) op v ~flipped:true :: selections, joins)
      | Sql_ast.Cmp (Sql_ast.Lit _, _, Sql_ast.Lit _) ->
        fail "condition compares two literals")
    ([], []) conditions
  |> fun (selections, joins) -> (List.rev selections, List.rev joins)

(* --- join-tree construction --- *)

(* While folding tables into the join tree, track how each (table, column)
   is named in the composite schema: Schema.concat primes right-hand
   duplicates, so later references must use the primed name. *)
let to_query select ~lookup =
  let env = make_env select.Sql_ast.tables ~lookup in
  let selections, joins = classify env select.Sql_ast.conditions in
  let renames : (string * string, string) Hashtbl.t = Hashtbl.create 16 in
  let first_table, first_schema = List.hd env.tables in
  List.iter
    (fun (name, _) -> Hashtbl.replace renames (first_table, name) name)
    (Schema.columns first_schema);
  let composite = ref first_schema in
  let joined = ref [ first_table ] in
  let pending = ref joins in
  let take_join_for table =
    let connects j =
      (List.mem (fst j.left) !joined && fst j.right = table)
      || (List.mem (fst j.right) !joined && fst j.left = table)
    in
    match List.partition connects !pending with
    | [], _ -> fail "no join condition connects table %s (cross products are unsupported)" table
    | j :: extra, rest ->
      (* Additional conditions linking the same table would need a
         post-join filter; keep the subset honest and reject them. *)
      if extra <> [] then
        fail "multiple join conditions for table %s are unsupported" table;
      pending := rest;
      if fst j.right = table then (j.left, j.right) else (j.right, j.left)
  in
  let tree = ref (Query.scan first_table) in
  List.iter
    (fun (table, schema) ->
      if table <> first_table then begin
        let (lt, lc), (_, rc) = take_join_for table in
        let left_col =
          match Hashtbl.find_opt renames (lt, lc) with
          | Some name -> name
          | None -> fail "internal: unresolved join column %s.%s" lt lc
        in
        (* Record how this table's columns appear in the new composite,
           mirroring Schema.concat's prime-until-unique renaming. *)
        let taken = ref (List.map fst (Schema.columns !composite)) in
        List.iter
          (fun (name, _) ->
            let rec fresh n = if List.mem n !taken then fresh (n ^ "'") else n in
            let renamed = fresh name in
            taken := renamed :: !taken;
            Hashtbl.replace renames (table, name) renamed)
          (Schema.columns schema);
        composite := Schema.concat !composite schema;
        joined := table :: !joined;
        tree := Query.join ~left:!tree ~right:(Query.scan table) ~on:(left_col, rc)
      end)
    env.tables;
  if !pending <> [] then
    fail "unsupported extra join condition between already-joined tables";
  (* Selections go above the joins; Planner.push_selections will sink them
     back to the leaves. *)
  List.iter
    (fun s ->
      let attribute =
        match Hashtbl.find_opt renames (s.sel_table, s.sel_column) with
        | Some name -> name
        | None -> fail "internal: unresolved column %s.%s" s.sel_table s.sel_column
      in
      let predicate =
        try Predicate.make ~attribute s.comparison
        with Invalid_argument m -> fail "bad predicate on %s: %s" attribute m
      in
      tree := Query.select predicate !tree)
    selections;
  match select.Sql_ast.projection with
  | None -> !tree
  | Some cols ->
    let names =
      List.map
        (fun c ->
          let table, name = resolve env c in
          match Hashtbl.find_opt renames (table, name) with
          | Some renamed -> renamed
          | None -> fail "internal: unresolved projection %s.%s" table name)
        cols
    in
    if List.length (List.sort_uniq String.compare names) <> List.length names then
      fail "duplicate column in SELECT list";
    Query.project names !tree

let parse_query input ~lookup = to_query (parse input) ~lookup
