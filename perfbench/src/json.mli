(** The little JSON the benchmark prints. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values print as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line, no spaces; floats in the fewest digits that read back
    exactly. *)
