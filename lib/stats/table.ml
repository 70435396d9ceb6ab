type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ~columns =
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: row length mismatch";
  t.rows <- row :: t.rows

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let pp ppf t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      t.headers
  in
  let render_row cells =
    let padded =
      List.map2
        (fun (cell, align) width -> pad align width cell)
        (List.combine cells t.aligns)
        widths
    in
    String.concat "  " padded
  in
  Format.fprintf ppf "%s@." (render_row t.headers);
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  Format.fprintf ppf "%s@." rule;
  List.iter (fun row -> Format.fprintf ppf "%s@." (render_row row)) rows

let to_string t = Format.asprintf "%a" pp t
