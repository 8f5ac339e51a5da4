(** The environment every result records: cores, compiler, commit, and
    non-blank lines of code per [lib/] layer (for information only). *)

val cores : unit -> int
(** Hardware parallelism available to the process. *)

val to_json : jobs:int -> Json.t
(** Cores, OCaml version, the checkout's commit (read from [.git], or
    ["unknown"]), domains requested, non-blank lines of the [.ml] and
    [.mli] files of each [lib/] layer directory, and the machine's speed
    at the time of the run: the fastest and the median of 40 timings of a
    memory-bound loop over 16 MB, for reading results, not for scaling
    them. *)
