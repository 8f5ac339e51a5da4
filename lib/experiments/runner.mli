(** The experiment cell scheduler: deterministic fork/join over independent
    experiment cells.

    A {e cell} is one independent unit of an experiment sweep — one
    (workload × advisor × k) combination, one replay, one solver timing —
    expressed as a labelled closure.  {!run} executes the cells on up to
    [cell_jobs] domains (via {!Cddpd_util.Parallel.map_chunks}) and
    returns their results {e in declaration order}, so a parallel sweep
    reports exactly what the sequential one does.

    {2 Determinism contract}

    - Results join in declaration order regardless of the domain count.
    - Each cell receives its own {!Cddpd_util.Rng.t}, split from a master
      seeded with [run]'s [seed] in declaration order — cell [i]'s stream
      depends only on [(seed, i)], never on how cells were chunked.
    - Cell bodies must not share mutable state: a cell that touches a
      database builds its own [Disk]/[Buffer_pool]/[Database] (lint R3
      holds by construction — there is nothing global to race on); cells
      may read shared immutable data (statement arrays, a pre-forced
      [Problem.t]) freely.

    {2 Job resolution and nesting}

    The domain count is resolved as: explicit [cell_jobs] argument, else
    {!set_default_cell_jobs} (the [--cell-jobs] CLI flag), else the
    [CDDPD_JOBS] environment variable, else
    {!Cddpd_util.Parallel.ncpu} — deliberately independent of
    [Parallel.set_default_jobs] so [--jobs] (problem construction) and
    [--cell-jobs] (experiment cells) stay distinct knobs.  The count is
    then clamped to the number of cells and to
    {!Cddpd_util.Parallel.ncpu}: more domains than cores only measures
    scheduler thrash.  While a
    parallel fan-out is in flight, the nested [Parallel] default is
    pinned to 1 (and restored afterwards) so cell bodies don't
    oversubscribe the machine; [run] must be called from the main domain.

    {2 Observability}

    Each [run] adds the cell count to [experiments.cells] and the resolved
    domain count to [experiments.cell_jobs_used], and wraps each cell in an
    [experiments.cell] span.  Recording is main-domain-only (see
    {!Cddpd_obs.Switch.active}), so with [cell_jobs > 1] the process-wide
    metrics reflect main-domain cells only. *)

type ctx = {
  label : string;  (** the cell's label, for diagnostics *)
  rng : Cddpd_util.Rng.t;  (** the cell's private deterministic stream *)
}

type 'a cell

val cell : string -> (ctx -> 'a) -> 'a cell
(** [cell label body] declares a cell. *)

val default_cell_jobs : unit -> int
(** The resolved default domain count: last {!set_default_cell_jobs}
    value, else [CDDPD_JOBS], else {!Cddpd_util.Parallel.ncpu}. *)

val set_default_cell_jobs : int -> unit
(** Override the process default (the [--cell-jobs] CLI flag).  Raises
    [Invalid_argument] if [jobs < 1]. *)

val run : ?cell_jobs:int -> ?seed:int -> 'a cell list -> 'a list
(** Execute the cells on up to [cell_jobs] domains and return their
    results in declaration order.  [seed] (default 0) seeds the master
    stream the per-cell streams are split from.  If any cell raises, every
    domain is joined first and the exception is re-raised. *)
