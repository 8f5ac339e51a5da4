(** Every metric the benchmark reports, with its unit.  BENCHMARK.json
    lists the same names and units; a test keeps the two in step. *)

val end_to_end : (string * string) list
(** [(name, unit)] of the metrics an untraced run reports. *)

val per_layer : (string * string) list
(** [(name, unit)] of the metrics a traced run reports. *)

val exec_groups : string list
(** The execution groups of [engine.exec_s.*] / [engine.exec_calls.*]:
    the three read access paths and [dml]. *)
