(** What one benchmark run found: its correctness gates, its operation
    counts, its metrics, and the sizes and environment it ran with. *)

type t = {
  checks : (string * bool) list;  (** named correctness gates *)
  attempted : int;  (** statements fed, or advisor requests made *)
  failed : int;  (** of those, the ones that returned [Error] or raised *)
  metrics : (string * float) list;  (** in {!Catalogue} order *)
  info : (string * Json.t) list;  (** sizes, sample counts, layer rows *)
}

val correct : t -> bool
(** Every check passed. *)

val metrics_of : (string * string) list -> (string * float) list -> (string * float) list
(** [metrics_of catalogue values] lists every catalogue name in order
    with its value from [values], [0.] where absent.  Raises
    [Invalid_argument] on a value whose name is not in the catalogue. *)

val all_pass : (string * bool) list list -> (string * bool) list
(** One verdict per check name, in order of first appearance: passed
    only if it passed in every list. *)

val mean : (string * float) list list -> (string * float) list
(** The element-wise mean of lists that name the same values in the same
    order (e.g. the metrics of several traced sets). *)

val result_json : t -> units:(string * string) list -> Json.t
(** The result object: [correct], [attempted], [failed] and [metrics]
    with each metric's unit. *)
