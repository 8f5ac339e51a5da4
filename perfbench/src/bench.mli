(** The benchmark's workloads and one run of one of them. *)

type size =
  | Full  (** the sizes BENCHMARK.json is measured at *)
  | Tiny  (** a seconds-long smoke size for tests *)

val workloads : string list
(** [update-mix], [drift-heavy], [advise-wide]. *)

val default_jobs : unit -> int
(** Domains a run requests unless told otherwise: 2, or fewer cores. *)

val run :
  workload:string ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  jobs:int ->
  size:size ->
  (Outcome.t, string) result
(** Generate the workload's inputs from [seed], then measure for
    [seconds] (at least one replay).  Untraced runs report
    {!Catalogue.end_to_end}; traced runs {!Catalogue.per_layer}.  [Error]
    on an unknown workload or when [jobs] exceeds the cores available.
    The outcome's info carries the workload, seed and {!Env.to_json}. *)
