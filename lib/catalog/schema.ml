module Tuple = Cddpd_storage.Tuple

type col_type = Int_type | Text_type

type column = { name : string; ty : col_type }

type table = { name : string; columns : column list }

let table name columns =
  (match columns with
  | [] -> invalid_arg "Schema.table: no columns"
  | _ :: _ -> ());
  let names = List.map fst columns in
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Schema.table: duplicate column names";
  { name; columns = List.map (fun (name, ty) -> { name; ty }) columns }

let column_index t name =
  let rec go i columns =
    match columns with
    | [] -> None
    | (c : column) :: rest ->
        if String.equal c.name name then Some i else go (i + 1) rest
  in
  go 0 t.columns

let column_index_exn t name =
  match column_index t name with Some i -> i | None -> raise Not_found

let column_type t name =
  List.find_map
    (fun (c : column) -> if String.equal c.name name then Some c.ty else None)
    t.columns

let mem_column t name = column_index t name <> None

let arity t = List.length t.columns

let int_field_offset t pos =
  let rec go i columns =
    match columns with
    | [] -> None
    | (c : column) :: rest -> (
        match c.ty with
        | Text_type -> None
        | Int_type -> if i = pos then Some (Tuple.int_payload_offset pos) else go (i + 1) rest)
  in
  if pos < 0 then None else go 0 t.columns

let int_reader t pos =
  match int_field_offset t pos with
  | Some off -> fun buf base -> Int64.to_int (Bytes.get_int64_le buf (base + off))
  | None -> (
      match List.nth_opt t.columns pos with
      | Some { ty = Int_type; _ } ->
          fun buf base -> Tuple.int_exn (Tuple.get_field_at buf ~base pos)
      | Some { ty = Text_type; _ } | None ->
          invalid_arg
            (Printf.sprintf "Schema.int_reader: column %d of %s is not an integer" pos t.name))

let value_matches ty v =
  match (ty, v) with
  | Int_type, Tuple.Int _ -> true
  | Text_type, Tuple.Text _ -> true
  | Int_type, Tuple.Text _ | Text_type, Tuple.Int _ -> false

let validate_tuple t tuple =
  if Array.length tuple <> arity t then
    Error
      (Printf.sprintf "tuple has %d fields, table %s has %d columns"
         (Array.length tuple) t.name (arity t))
  else
    let rec go i columns =
      match columns with
      | [] -> Ok ()
      | (c : column) :: rest ->
          if value_matches c.ty tuple.(i) then go (i + 1) rest
          else Error (Printf.sprintf "column %s: type mismatch" c.name)
    in
    go 0 t.columns

let pp_col_type ppf ty =
  Format.pp_print_string ppf
    (match ty with Int_type -> "int" | Text_type -> "text")

let pp_table ppf t =
  Format.fprintf ppf "%s(%a)" t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (c : column) -> Format.fprintf ppf "%s %a" c.name pp_col_type c.ty))
    t.columns
