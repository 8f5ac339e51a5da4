type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

(* The shortest of %.15g, %.16g and %.17g that reads back as the same
   float: every digit of the value, no more. *)
let shortest f =
  let exact digits =
    let text = Printf.sprintf "%.*g" digits f in
    if Float.equal (float_of_string text) f then Some text else None
  in
  match exact 15 with
  | Some text -> text
  | None -> ( match exact 16 with Some text -> text | None -> Printf.sprintf "%.17g" f)

let rec add buf = function
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (shortest f)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          add buf (String key);
          Buffer.add_char buf ':';
          add buf value)
        fields;
      Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 1024 in
  add buf json;
  Buffer.contents buf
