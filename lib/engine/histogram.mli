(** Equi-depth histograms over integer columns.

    The what-if optimizer needs selectivity estimates for equality and
    range predicates; an equi-depth histogram with per-bucket distinct
    counts is the classic structure for this (and what commercial systems
    use).  Built from the full column, so estimates are exact up to
    within-bucket uniformity assumptions. *)

type t

val build : ?buckets:int -> int array -> t
(** [build ?buckets values] builds a histogram with at most [buckets]
    buckets (default 64).  The input array is not modified.  Raises
    [Invalid_argument] if [buckets <= 0].  Equivalent to sorting a copy
    and calling {!of_sorted}. *)

val of_sorted : ?buckets:int -> n:int -> int array -> t
(** [of_sorted ?buckets ~n sorted] builds the same histogram as {!build}
    over the first [n] elements of [sorted], which must be in ascending
    order (not checked): O(n), no allocation beyond the buckets.  The
    array may be longer than [n]; the tail is ignored.  Raises
    [Invalid_argument] if [buckets <= 0] or [n] is outside
    [\[0, Array.length sorted\]]. *)

val n_values : t -> int
(** Total number of (non-distinct) values the histogram summarises. *)

val n_distinct : t -> int
(** Exact number of distinct values seen at build time. *)

val selectivity_eq : t -> int -> float
(** Estimated fraction of rows with column = v, in [\[0,1\]]. *)

val selectivity_range : t -> lo:int option -> hi:int option -> float
(** Estimated fraction of rows with lo <= column <= hi (either bound may be
    absent), in [\[0,1\]]. *)

val fingerprint : t -> string
(** Digest of the histogram's full contents (every bucket boundary,
    count and distinct count).  Two histograms with equal fingerprints
    produce identical selectivity estimates for every predicate. *)

val min_value : t -> int option
(** Smallest value, [None] for an empty histogram. *)

val max_value : t -> int option
(** Largest value, [None] for an empty histogram. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering of bucket boundaries and counts. *)
