(** The database façade: storage, catalog, statistics, planning and
    execution in one handle.

    This plays the role SQL Server played in the paper's experiments: it
    holds the data, materialises whatever physical design the advisor (or
    the simulator) asks for, executes statements with measured I/O, and
    exposes the what-if cost model through its statistics. *)

type t

val create :
  ?pool_capacity:int ->
  ?readahead:int ->
  ?params:Cost_model.params ->
  Cddpd_catalog.Schema.table list ->
  t
(** A fresh database with the given schema.  [pool_capacity] is the buffer
    pool size in pages (default 256); [readahead] is the pool's sequential
    prefetch budget (see {!Cddpd_storage.Buffer_pool.create}; [0]
    disables readahead — logical I/O is unaffected either way). *)

val params : t -> Cost_model.params

val schema : t -> string -> Cddpd_catalog.Schema.table option

val tables : t -> Cddpd_catalog.Schema.table list

val load : ?bulk:bool -> t -> table:string -> Cddpd_storage.Tuple.t array -> unit
(** Bulk-append tuples, maintaining any existing indexes and views, and
    invalidate the table's statistics.  Loading also drops the table's
    sorted column values (see {!table_stats}), so the next
    {!table_stats}/{!analyze} collects from scratch: one heap scan and
    one sort per integer column.  With [bulk] (the default) and at least
    one existing structure, rows go heap-first and each structure is then
    rebuilt once via a sorted bulk load — same resulting logical state as
    the row-at-a-time path ([bulk:false]), built in O(n log n) instead of
    one tree descent per row per structure; the bulk path also validates
    every row before mutating anything.  Raises [Invalid_argument] on
    schema mismatch. *)

val row_count : t -> string -> int

val page_count : t -> string -> int
(** Heap pages of the table. *)

val iter_rows : t -> string -> (Cddpd_storage.Tuple.t -> unit) -> unit
(** Every live row in heap order, read through the buffer pool (so the
    scan counts as I/O).  For oracles and tests; the engine's own scans
    run through {!execute}. *)

val analyze : t -> unit
(** Replace every table's statistics with a fresh snapshot, collected
    as {!table_stats} collects a stale one. *)

val table_stats : t -> string -> Table_stats.t
(** Statistics for the table, computing them if stale.  Raises
    [Invalid_argument] on an unknown table.

    Each table keeps its integer columns' live values as sorted arrays.
    The first collection after {!create} or {!load} builds them: a full
    heap scan through the buffer pool plus one sort per integer column.
    From then on every INSERT, DELETE and UPDATE patches them exactly,
    one merge per column per statement (an UPDATE skips the columns it
    does not assign).  So a later refresh reads no page and costs O(n)
    per integer column for n rows, and the histograms are bit-identical
    to a fresh scan's.  The arrays cost 8 bytes per row per integer
    column (up to half as much again as spare capacity after INSERTs
    grow them), for as long as the database lives.

    Every statement but INSERT that finds the statistics stale refreshes
    them before its I/O meters start: the refresh is not billed to the
    statement's [logical_io].  Only the first collection reads pages, so
    this matters only for the first statement to read statistics after
    {!create} or {!load}. *)

val stats_generation : t -> string -> int
(** The table's statistics generation: bumped by every invalidation (DML,
    {!load}) and every {!analyze} replacement, but not by lazy
    materialization.  Within one generation at most one snapshot exists,
    so generation equality proves two {!table_stats} results are
    physically the same object — the fence serve's one-pass cost-identity
    pipeline keys on. *)

(** {1 Physical design} *)

val current_design : t -> Cddpd_catalog.Design.t
(** The materialised design, assembled in declared table order so the
    result is deterministic across processes and hash seeds.  Memoized;
    recomputed only after a structure change. *)

val design_key : t -> string
(** [Cost_key.design (current_design t)], memoized alongside the design. *)

val build_index : t -> Cddpd_catalog.Index_def.t -> unit
(** Materialise an index (no-op if already present). *)

val drop_index : t -> Cddpd_catalog.Index_def.t -> unit
(** Remove an index (no-op if absent). *)

val migrate_to : t -> Cddpd_catalog.Design.t -> unit
(** Build and drop indexes so the materialised design equals the target —
    the physical realisation of a TRANS step. *)

(** {1 Execution} *)

type exec_result = {
  rows : Cddpd_storage.Tuple.t list;  (** result rows, in access order *)
  affected : int;  (** rows inserted / deleted / updated *)
  plan : Plan.t option;
      (** the chosen plan (selects and the find phase of DELETE/UPDATE) *)
  logical_io : int;  (** buffer pool page accesses *)
  physical_io : int;  (** disk page reads *)
}

val execute :
  ?statement_key:string -> ?skip_check:bool -> t -> Cddpd_sql.Ast.statement -> exec_result
(** Validate, plan, and run one statement.  Raises [Invalid_argument] on
    semantic errors.

    [statement_key] engages the plan-choice memo for SELECT and aggregate
    statements: it must be [Cost_key.statement] of this statement under
    the table's *current* statistics (see {!stats_generation}).  A memo
    hit skips {!Cost_model.choose_plan} and returns the bit-identical
    plan with this statement's literals rebound; results and I/O are
    unchanged.  [skip_check] (default [false]) skips semantic validation;
    only pass [true] for a statement that already passed it against an
    unchanged schema, as serve's template cache does. *)

val plan_cache_stats : t -> Plan_cache.stats
(** Hit/miss/invalidation counters of the plan-choice memo. *)

val execute_sql : t -> string -> exec_result
(** Parse then {!execute}.  Raises [Cddpd_sql.Parser.Parse_error] or
    [Invalid_argument]. *)

(** {1 Measurement} *)

val io_counters : t -> int * int
(** Cumulative (logical, physical) I/O since creation or the last reset. *)

val reset_io_counters : t -> unit

val drop_buffer_cache : t -> unit
(** Force the next accesses to hit the simulated disk (cold cache). *)
