(** Lint orchestration: walk the tree, load each file's cmt, run the
    typed pass (exact R1/R2, the R7 extract) and the syntactic rules,
    solve the interprocedural race analysis, render the report.

    A file whose cmt is missing or stale yields one blocking
    [Missing_cmt] finding naming the file (build with [dune build
    @check] first).  The run is clean iff {!blocking} is empty — the
    executable turns that into the exit code. *)

type report = {
  root : string;
  config : Lint_config.t;
  findings : Lint_types.finding list;  (** sorted; waived ones included *)
  files_scanned : int;
  typed_files : int;  (** files analyzed from a fresh cmt *)
  obs_dynamic : int;
      (** Obs constructor calls with non-literal names, uncheckable by R6 *)
  r3_dirs : string list;  (** resolved domain-unsafe-state scope *)
  warnings : string list;  (** configuration problems, e.g. unreadable files *)
}

val run : ?config:Lint_config.t -> root:string -> unit -> report
(** Lint the tree rooted at [root] (the repository checkout). *)

val unwaived : report -> Lint_types.finding list
(** Findings without a waiver. *)

val waived : report -> Lint_types.finding list

val blocking : report -> Lint_types.finding list
(** Unwaived findings — these fail the run. *)

val render_text : ?show_waived:bool -> report -> string
(** One [file:line: [rule-id] message] line per unwaived finding (all
    findings with [show_waived]), then a summary line. *)

val render_json : report -> string
(** The machine-readable report (schema ["cddpd-lint/3"]) CI archives. *)
