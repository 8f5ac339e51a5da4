(** Logical schemas: tables and typed columns. *)

type col_type = Int_type | Text_type

type column = { name : string; ty : col_type }

type table = { name : string; columns : column list }

val table : string -> (string * col_type) list -> table
(** [table name columns] builds a table schema.  Raises [Invalid_argument]
    on an empty or duplicate column list. *)

val column_index : table -> string -> int option
(** Position of a column in the tuple layout. *)

val column_index_exn : table -> string -> int
(** Like {!column_index} but raises [Not_found]. *)

val column_type : table -> string -> col_type option
(** Declared type of a column. *)

val mem_column : table -> string -> bool
(** Whether the table has the column. *)

val arity : table -> int
(** Number of columns. *)

val int_field_offset : table -> int -> int option
(** [int_field_offset t pos] is the byte offset, from the start of an
    encoded record, of integer column [pos]'s 8-byte payload when every
    column up to and including [pos] is an integer (each earlier field
    then has the fixed integer width); [None] otherwise. *)

val int_reader : table -> int -> bytes -> int -> int
(** [int_reader t pos] reads integer column [pos] of a record encoded at
    [base] in [buf] ([int_reader t pos buf base]): a direct read at
    {!int_field_offset} when there is one, else the field walk of
    {!Cddpd_storage.Tuple.get_field_at}.  Raises [Invalid_argument] if
    column [pos] is missing or not an integer. *)

val value_matches : col_type -> Cddpd_storage.Tuple.value -> bool
(** Whether a runtime value inhabits the declared type. *)

val validate_tuple : table -> Cddpd_storage.Tuple.t -> (unit, string) result
(** Check arity and per-column types. *)

val pp_table : Format.formatter -> table -> unit
(** Render as [name(col ty, ...)]. *)
