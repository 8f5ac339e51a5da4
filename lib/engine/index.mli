(** Physical secondary indexes: a {!Cddpd_storage.Btree} keyed by the
    indexed column values with the rid appended, so that duplicate column
    values remain distinct keys and prefix scans recover the rids.

    Indexes are restricted to integer columns (text keys would need
    order-preserving encoding, which the paper's workloads never use). *)

type t

val build :
  Cddpd_storage.Buffer_pool.t ->
  Cddpd_catalog.Schema.table ->
  Cddpd_storage.Heap_file.t ->
  Cddpd_catalog.Index_def.t ->
  t
(** Scan the heap, sort, and bulk-load the tree.  The scan reads the key
    columns straight from the page bytes ({!Cddpd_catalog.Schema.int_reader}
    over {!Cddpd_storage.Heap_file.iter_slices}); no row is decoded.  The
    sort packs each key
    into a single word whenever the observed component ranges fit 62 bits
    (they essentially always do) and sorts the packed ints monomorphically
    ({!Cddpd_util.Int_sort}).  Raises [Invalid_argument] if the definition
    references a missing or non-integer column. *)

val build_of_rows :
  Cddpd_storage.Buffer_pool.t ->
  Cddpd_catalog.Schema.table ->
  Cddpd_catalog.Index_def.t ->
  rows:Cddpd_storage.Tuple.t array ->
  rids:Cddpd_storage.Heap_file.rid array ->
  t
(** Like {!build}, but over an in-memory batch of (row, rid) pairs instead
    of a heap scan — the bulk-load fast path for a table whose heap holds
    exactly these rows.  The caller is responsible for that invariant;
    rows already in the heap but absent from the batch are simply missing
    from the tree.  Raises [Invalid_argument] on length mismatch or a bad
    column. *)

val def : t -> Cddpd_catalog.Index_def.t

val insert_entry : t -> Cddpd_storage.Tuple.t -> Cddpd_storage.Heap_file.rid -> unit
(** Index maintenance after a heap insert. *)

val delete_entry : t -> Cddpd_storage.Tuple.t -> Cddpd_storage.Heap_file.rid -> bool
(** Index maintenance after a heap delete; returns whether the entry was
    present. *)

val columns : t -> string list
(** The key columns, in index order. *)

val probe :
  t ->
  eq_prefix:int list ->
  range:(Plan.range_bound option * Plan.range_bound option) option ->
  Cddpd_storage.Heap_file.rid list
(** Rids whose column values match the equality prefix and optional range
    bound on the following column, in key order.  Raises
    [Invalid_argument] if the prefix is longer than the key. *)

val probe_entries :
  t ->
  eq_prefix:int list ->
  range:(Plan.range_bound option * Plan.range_bound option) option ->
  int array list
(** Like {!probe} but returns the logical key values (one [int array] per
    matching entry, in index-column order) — the data a covering seek
    answers from without heap access. *)

val scan_entries : t -> (int array -> unit) -> unit
(** Iterate every entry's logical key values in key order: the access path
    behind {!Plan.Index_only_scan}. *)

val probe_slices :
  t ->
  eq_prefix:int list ->
  range:(Plan.range_bound option * Plan.range_bound option) option ->
  (bytes -> int -> unit) ->
  unit
(** Zero-allocation variant of {!probe_entries}: the callback receives the
    leaf page buffer and the byte offset of each matching entry (key
    column [j]'s value at [offset + 8 * j]), valid only during the
    call. *)

val scan_slices : t -> (bytes -> int -> unit) -> unit
(** Zero-allocation variant of {!scan_entries}: the callback receives the
    leaf page buffer and the byte offset of the entry (key column [j]'s
    value is the 64-bit little-endian integer at [offset + 8 * j]), valid
    only during the call. *)

val height : t -> int

val n_pages : t -> int

val n_entries : t -> int
