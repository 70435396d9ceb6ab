let fail fmt = Format.kasprintf (fun s -> raise (Sql_lexer.Error s)) fmt

type state = { mutable tokens : Sql_token.t list }

let peek st = match st.tokens with [] -> Sql_token.Eof | t :: _ -> t

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let expect st token =
  if Sql_token.equal (peek st) token then advance st
  else fail "expected %s but found %s" (Sql_token.to_string token)
      (Sql_token.to_string (peek st))

let ident st =
  match peek st with
  | Sql_token.Ident name -> advance st; name
  | t -> fail "expected an identifier but found %s" (Sql_token.to_string t)

(* column ::= ident ["." ident] *)
let column st =
  let first = ident st in
  match peek st with
  | Sql_token.Dot ->
    advance st;
    let name = ident st in
    { Sql_ast.table = Some first; name }
  | _ -> { Sql_ast.table = None; name = first }

let literal_opt st =
  match peek st with
  | Sql_token.Int_lit n -> advance st; Some (Value.Int n)
  | Sql_token.Float_lit f -> advance st; Some (Value.Float f)
  | Sql_token.String_lit s -> advance st; Some (Value.String s)
  | Sql_token.Date_lit (year, month, day) ->
    advance st;
    (try Some (Value.date_of_ymd ~year ~month ~day)
     with Invalid_argument m -> fail "invalid date literal: %s" m)
  | Sql_token.Select | Sql_token.From | Sql_token.Where | Sql_token.And
  | Sql_token.Between | Sql_token.Ident _ | Sql_token.Star | Sql_token.Comma
  | Sql_token.Dot | Sql_token.Eq | Sql_token.Lt | Sql_token.Gt | Sql_token.Le
  | Sql_token.Ge | Sql_token.Lparen | Sql_token.Rparen | Sql_token.Eof -> None

let operand st =
  match literal_opt st with
  | Some v -> Sql_ast.Lit v
  | None -> Sql_ast.Col (column st)

let cmp_opt st =
  match peek st with
  | Sql_token.Eq -> advance st; Some Sql_ast.Ceq
  | Sql_token.Lt -> advance st; Some Sql_ast.Clt
  | Sql_token.Gt -> advance st; Some Sql_ast.Cgt
  | Sql_token.Le -> advance st; Some Sql_ast.Cle
  | Sql_token.Ge -> advance st; Some Sql_ast.Cge
  | Sql_token.Select | Sql_token.From | Sql_token.Where | Sql_token.And
  | Sql_token.Between | Sql_token.Ident _ | Sql_token.Int_lit _
  | Sql_token.Float_lit _ | Sql_token.String_lit _ | Sql_token.Date_lit _
  | Sql_token.Star | Sql_token.Comma | Sql_token.Dot | Sql_token.Lparen
  | Sql_token.Rparen | Sql_token.Eof -> None

(* Tightening for the chained form: a strict integer/date bound becomes the
   adjacent inclusive one. *)
let tighten_lower = function
  | Value.Int n -> Value.Int (n + 1)
  | Value.Date d -> Value.Date (d + 1)
  | Value.Float _ | Value.String _ ->
    fail "strict bounds in chained comparisons need integer or date literals"

let tighten_upper = function
  | Value.Int n -> Value.Int (n - 1)
  | Value.Date d -> Value.Date (d - 1)
  | Value.Float _ | Value.String _ ->
    fail "strict bounds in chained comparisons need integer or date literals"

(* condition after the first [operand cmp operand] has been read: check for
   a continuation ([… cmp operand]) making it a chained comparison. *)
let finish_chained first op1 mid st =
  match cmp_opt st with
  | None -> Sql_ast.Cmp (first, op1, mid)
  | Some op2 -> (
    let last = operand st in
    (* lit op col op lit, with both ops pointing the same direction. *)
    match (first, mid, last) with
    | Sql_ast.Lit lo, Sql_ast.Col col, Sql_ast.Lit hi -> (
      let lower v = function
        | Sql_ast.Clt -> tighten_lower v
        | Sql_ast.Cle -> v
        | Sql_ast.Ceq | Sql_ast.Cgt | Sql_ast.Cge ->
          fail "chained comparisons must read low < col < high"
      in
      let upper v = function
        | Sql_ast.Clt -> tighten_upper v
        | Sql_ast.Cle -> v
        | Sql_ast.Ceq | Sql_ast.Cgt | Sql_ast.Cge ->
          fail "chained comparisons must read low < col < high"
      in
      match (op1, op2) with
      | (Sql_ast.Clt | Sql_ast.Cle), (Sql_ast.Clt | Sql_ast.Cle) ->
        Sql_ast.Between_cond (col, lower lo op1, upper hi op2)
      | _ -> fail "chained comparisons must read low < col < high")
    | _ -> fail "chained comparisons must have the form literal op column op literal")

let condition st =
  let first = operand st in
  match peek st with
  | Sql_token.Between -> (
    advance st;
    match first with
    | Sql_ast.Col col -> (
      match literal_opt st with
      | None -> fail "BETWEEN needs literal bounds"
      | Some lo -> (
        expect st Sql_token.And;
        match literal_opt st with
        | None -> fail "BETWEEN needs literal bounds"
        | Some hi -> Sql_ast.Between_cond (col, lo, hi)))
    | Sql_ast.Lit _ -> fail "BETWEEN applies to a column")
  | _ -> (
    match cmp_opt st with
    | Some op -> finish_chained first op (operand st) st
    | None ->
      fail "expected a comparison operator but found %s"
        (Sql_token.to_string (peek st)))

let parse input =
  let st = { tokens = Sql_lexer.tokenize input } in
  expect st Sql_token.Select;
  let projection =
    match peek st with
    | Sql_token.Star -> advance st; None
    | _ ->
      let rec cols acc =
        let c = column st in
        match peek st with
        | Sql_token.Comma -> advance st; cols (c :: acc)
        | _ -> List.rev (c :: acc)
      in
      Some (cols [])
  in
  expect st Sql_token.From;
  let rec tables acc =
    let t = ident st in
    match peek st with
    | Sql_token.Comma -> advance st; tables (t :: acc)
    | _ -> List.rev (t :: acc)
  in
  let tables = tables [] in
  let conditions =
    match peek st with
    | Sql_token.Where ->
      advance st;
      let rec conj acc =
        let c = condition st in
        match peek st with
        | Sql_token.And -> advance st; conj (c :: acc)
        | _ -> List.rev (c :: acc)
      in
      conj []
    | _ -> []
  in
  expect st Sql_token.Eof;
  { Sql_ast.projection; tables; conditions }
