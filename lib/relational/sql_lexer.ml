exception Error of string

let fail position fmt =
  Format.kasprintf
    (fun m -> raise (Error m))
    ("lexical error at offset %d: " ^^ fmt)
    position

let is_digit c = '0' <= c && c <= '9'
let is_ident_start c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let keyword_of_ident s =
  match String.lowercase_ascii s with
  | "select" -> Some Sql_token.Select
  | "from" -> Some Sql_token.From
  | "where" -> Some Sql_token.Where
  | "and" -> Some Sql_token.And
  | "between" -> Some Sql_token.Between
  | _ -> None

(* A DATE keyword followed by a 'yyyy-mm-dd' literal. *)
let parse_date_body position body =
  match String.split_on_char '-' body with
  | [ y; m; d ] -> (
    match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
    | Some y, Some m, Some d -> Sql_token.Date_lit (y, m, d)
    | _ -> fail position "malformed date literal %S" body)
  | _ -> fail position "malformed date literal %S" body

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let rec skip_ws i = if i < n && (input.[i] = ' ' || input.[i] = '\t' || input.[i] = '\n' || input.[i] = '\r') then skip_ws (i + 1) else i in
  (* Reads a quoted string starting after the opening quote; returns
     (contents, index after closing quote). '' escapes a quote. *)
  let read_string start =
    let buf = Buffer.create 16 in
    let rec go i =
      if i >= n then fail start "unterminated string literal"
      else if input.[i] = '\'' then
        if i + 1 < n && input.[i + 1] = '\'' then begin
          Buffer.add_char buf '\'';
          go (i + 2)
        end
        else (Buffer.contents buf, i + 1)
      else begin
        Buffer.add_char buf input.[i];
        go (i + 1)
      end
    in
    go start
  in
  let read_number start =
    let rec scan i seen_dot =
      if i < n && is_digit input.[i] then scan (i + 1) seen_dot
      else if i < n && input.[i] = '.' && not seen_dot && i + 1 < n && is_digit input.[i + 1]
      then scan (i + 1) true
      else (i, seen_dot)
    in
    let stop, is_float = scan start false in
    let text = String.sub input start (stop - start) in
    let token =
      if is_float then Sql_token.Float_lit (float_of_string text)
      else
        match int_of_string_opt text with
        | Some v -> Sql_token.Int_lit v
        | None -> fail start "integer literal %s is out of range" text
    in
    (token, stop)
  in
  let read_ident start =
    let rec scan i = if i < n && is_ident_char input.[i] then scan (i + 1) else i in
    let stop = scan start in
    (String.sub input start (stop - start), stop)
  in
  let rec go i =
    let i = skip_ws i in
    if i >= n then emit Sql_token.Eof
    else
      match input.[i] with
      | '*' -> emit Sql_token.Star; go (i + 1)
      | ',' -> emit Sql_token.Comma; go (i + 1)
      | '.' -> emit Sql_token.Dot; go (i + 1)
      | '(' -> emit Sql_token.Lparen; go (i + 1)
      | ')' -> emit Sql_token.Rparen; go (i + 1)
      | '=' -> emit Sql_token.Eq; go (i + 1)
      | '<' ->
        if i + 1 < n && input.[i + 1] = '=' then begin
          emit Sql_token.Le;
          go (i + 2)
        end
        else begin
          emit Sql_token.Lt;
          go (i + 1)
        end
      | '>' ->
        if i + 1 < n && input.[i + 1] = '=' then begin
          emit Sql_token.Ge;
          go (i + 2)
        end
        else begin
          emit Sql_token.Gt;
          go (i + 1)
        end
      | '\'' ->
        let s, next = read_string (i + 1) in
        emit (Sql_token.String_lit s);
        go next
      | c when is_digit c ->
        let token, next = read_number i in
        emit token;
        go next
      | c when is_ident_start c -> begin
        let ident, next = read_ident i in
        match keyword_of_ident ident with
        | Some kw -> emit kw; go next
        | None ->
          if String.lowercase_ascii ident = "date" then begin
            (* DATE 'yyyy-mm-dd' *)
            let j = skip_ws next in
            if j < n && input.[j] = '\'' then begin
              let body, after = read_string (j + 1) in
              emit (parse_date_body j body);
              go after
            end
            else begin
              emit (Sql_token.Ident ident);
              go next
            end
          end
          else begin
            emit (Sql_token.Ident ident);
            go next
          end
      end
      | c -> fail i "unexpected character %C" c
  in
  go 0;
  List.rev !tokens
