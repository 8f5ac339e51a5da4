(** Statistics-refresh detection for the layer replay.

    {!Cddpd_engine.Database.table_stats} re-collects a table's statistics
    (a full heap scan plus histogram builds) only when the table's
    {!Cddpd_engine.Database.stats_generation} moved since the snapshot it
    holds; every other call is a cached lookup.  The tracker wraps the
    replay's calls, compares the generation with the one seen at its
    previous call, and bills the call as a refresh or a lookup.  This is
    exact because every statement that moves the generation (INSERT,
    DELETE, UPDATE) also drops the snapshot, so the first call after a
    move always re-collects.  Re-collections that happen inside
    [Database.execute] (a DML's own find phase) are billed to execution,
    where they occur. *)

type t

val create : Cddpd_engine.Database.t -> string -> t
(** A tracker over one table of a database whose statistics are current
    (the benchmark's set-up always ends with [analyze]). *)

val is_refresh : last_gen:int -> gen:int -> bool
(** Whether a [table_stats] call made at generation [gen] re-collects,
    given the generation of the previous call. *)

val table_stats : t -> Cddpd_engine.Table_stats.t
(** [Database.table_stats], timed and billed. *)

val refreshes : t -> int

val refresh_s : t -> float

val lookups : t -> int

val lookup_s : t -> float
