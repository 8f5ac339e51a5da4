(** Heap files: unordered tuple storage in slotted pages.

    Tuples are appended to the last page with room; a full insert allocates
    a new page.  Deletion clears the slot but does not reclaim space (the
    workloads in this library are read-mostly; compaction is out of
    scope). *)

type t

type rid = { page : int; slot : int }
(** Record identifier: page id plus slot number within the page. *)

val pp_rid : Format.formatter -> rid -> unit
(** Render as [page:slot]. *)

val compare_rid : rid -> rid -> int
(** Lexicographic (page, slot) order. *)

val create : Buffer_pool.t -> t
(** A fresh empty heap file. *)

val insert : t -> Tuple.t -> rid
(** Append a tuple.  Raises [Invalid_argument] if the encoded tuple cannot
    fit in an empty page. *)

val fetch : t -> rid -> Tuple.t option
(** [fetch t rid] returns the tuple, or [None] if the slot was deleted.
    Raises [Invalid_argument] on an out-of-range rid. *)

val delete : t -> rid -> bool
(** Clear the slot; returns whether a live tuple was there. *)

val iter : t -> (rid -> Tuple.t -> unit) -> unit
(** Full scan in storage order, skipping deleted slots, decoding each
    record.  All full scans ({!iter}, {!iter_slices}, {!fold}) go through
    {!Buffer_pool.fetch_sequential}: scan-resistant eviction plus
    readahead, with unchanged logical-I/O accounting. *)

val iter_slices : t -> (page:int -> slot:int -> bytes -> int -> unit) -> unit
(** Zero-copy full scan: the callback receives the record's rid
    components, the page buffer and the byte offset of the encoded record
    (extract fields with {!Tuple.get_field_at}), valid only for the
    duration of the call — the executor's scan hot path, with no per-row
    allocation.  Each page's slot directory is checked once against the
    page size (raising [Invalid_argument] if it overruns the page); slot
    entries are then read from the page bytes without per-read checks. *)

val fold : t -> init:'a -> f:('a -> rid -> Tuple.t -> 'a) -> 'a
(** Folding full scan. *)

val n_tuples : t -> int
(** Live tuple count. *)

val n_pages : t -> int
(** Number of pages the file occupies. *)
