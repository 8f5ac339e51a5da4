(** Nearest-rank percentiles over timing samples.

    A percentile is only reported when enough samples lie beyond it to
    make it more than the single slowest reading: {!highest_supported}
    picks the highest percentile of a fixed ladder that still has
    [min_above] samples above it. *)

val sorted : float array -> float array
(** An ascending copy. *)

val rank : n:int -> float -> int
(** The 1-based nearest rank of percentile [p] among [n] samples:
    [ceil (p * n / 100)], clamped to [\[1, n\]]. *)

val above : n:int -> float -> int
(** Samples strictly beyond the percentile's rank: [n - rank ~n p]. *)

val percentile : float array -> float -> float
(** [percentile sorted p] on an ascending array; [0.] when empty. *)

val median : float array -> float
(** The median of an unsorted array (nearest rank); [0.] when empty. *)

val position_minima : float array list -> float array
(** Element-wise minimum of equal-length arrays.  The benchmark replays
    the same deterministic work several times; on a shared machine outside
    load only ever adds time (50 ms CPU loops varied up to 2x from chunk
    to chunk, their minimum by about 5%), so each position's fastest
    reading is its steadiest estimate.  Raises [Invalid_argument] on an
    empty list or unequal lengths. *)

val highest_supported : ?min_above:int -> int -> float option
(** The highest of the percentiles 50, 90, 99, 99.9 and 99.99 with at
    least [min_above] (default 10) of [n] samples above it; [None] when
    even the median lacks them. *)
