(** The reference oracle: the naive, uncached computations that every
    production fast path must reproduce bit for bit.

    The production pipeline maintains table statistics incrementally,
    memoizes what-if calls ({!Cddpd_engine.Cost_cache}), parses through
    a statement-template cache, memoizes plan choice, keys statements
    once on arrival, and re-optimizes through a persistent
    {!Cddpd_core.Reopt} session.  None of that is switchable:
    this module is the single slow path those optimizations are compared
    against.  The tests and the bench harness link it; the [cddpd]
    binary does not. *)

val problem :
  params:Cddpd_engine.Cost_model.params ->
  stats_of:(string -> Cddpd_engine.Table_stats.t) ->
  steps:Cddpd_sql.Ast.statement array array ->
  space:Cddpd_core.Config_space.t ->
  initial:Cddpd_catalog.Design.t ->
  ?count_initial_change:bool ->
  unit ->
  Cddpd_core.Problem.t
(** Definition 1's matrices straight from {!Cddpd_engine.Cost_model}:
    sequential, uncached, one [statement_cost] call per (statement,
    configuration), each EXEC cell summed left to right in statement
    order and each TRANS entry from [transition_cost] — the floats
    {!Cddpd_core.Problem.build} must equal at any [jobs], compressed or
    not, with or without a reuse session. *)

(** {1 Statistics} *)

val table_stats : Cddpd_engine.Database.t -> string -> Cddpd_engine.Table_stats.t
(** The table's statistics collected from scratch: a full heap scan
    ({!Cddpd_engine.Database.iter_rows}, which reads through the buffer
    pool) and {!Cddpd_engine.Histogram.build} per integer column — what
    {!Cddpd_engine.Database.table_stats} must equal, by
    {!Cddpd_engine.Table_stats.fingerprint}, after any sequence of loads
    and DML.  Does not touch the database's own statistics. *)

(** {1 Serve loop} *)

type window = {
  exec_logical_io : int;  (** measured logical I/O of executing the window *)
  drift : float option;  (** distance to the previous window's profile *)
  migrate_io : int;
      (** logical I/O of migrating, after the window closed, to the design
          the report served next *)
}

type replay = {
  windows : window array;
  statements : int;  (** statements executed, residual included *)
  exec_logical_io : int;  (** residual included *)
  trans_logical_io : int;
}

val replay :
  ?on_text:(closed:bool -> unit) ->
  Cddpd_engine.Database.t ->
  Cddpd_serve.Server.config ->
  Cddpd_serve.Server.report ->
  string array ->
  (replay, string) result
(** Replay the texts a server was fed against [db] (a fresh database in
    the state the server started from) the slow way: a fresh
    {!Cddpd_sql.Parser.parse} and {!Cddpd_engine.Check.statement} per
    text (rejected texts are skipped, as {!Cddpd_serve.Server.feed_sql}
    skips them), a {!Cddpd_engine.Cost_key.statement} per read at feed
    time, {!Cddpd_engine.Database.execute} with no statement key, and
    per-window drift from keys recomputed at close whenever the
    statistics generation moved.  At every window boundary the replay
    migrates to the design the report served next, so no decision is
    re-derived here (see {!reoptimize}).  [on_text] runs after every
    text; [closed] is true when it completed a window.

    [Error] names the first disagreement with [report]: a window's
    measured I/O or drift distance (bit-exact), a window's deployment or
    rollback I/O, or the statement and I/O totals. *)

val reoptimize :
  Cddpd_engine.Database.t ->
  Cddpd_serve.Server.config ->
  trace:Cddpd_sql.Ast.statement array ->
  Cddpd_serve.Server.window_report ->
  (unit, string) result
(** Check one [Continuous] window decision from an [on_window] hook.
    [trace] is every statement the server executed so far, in order.  A
    window that drifted (or is the first) must have re-optimized unless
    probation rolled it back, and one that did not must not have.  A
    re-optimization is rebuilt from scratch: the request of
    {!Cddpd_serve.Server.reoptimization_request} over the last [history]
    windows, seeded at the window's served design, built by
    {!Cddpd_core.Advisor.build_problem} with no session, solved by
    {!Cddpd_core.Optimizer.solve} with no warm bound, and assessed by
    {!Cddpd_serve.Guard.assess}.  [Error] when the resulting action
    differs from the window's in kind, design, or any projection float
    (deployment I/O is {!replay}'s to check).  Raises [Invalid_argument]
    for another regime. *)
