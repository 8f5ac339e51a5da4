(** One integer column's live values, kept in ascending order and patched
    in place as rows come and go.

    {!Database} keeps one per integer column so that a statistics refresh
    after DML is {!Histogram.of_sorted} over values already in order,
    instead of a heap scan and a sort.  Single-domain. *)

type t

val of_unsorted : int array -> t
(** Sort the array in place and take ownership of it. *)

val to_array : t -> int array
(** A fresh copy of the values, ascending. *)

val histogram : t -> Histogram.t
(** [Histogram.of_sorted] over the values: the histogram
    [Histogram.build] gives for the same multiset. *)

val patch : t -> removed:int array -> added:int array -> unit
(** Remove one occurrence of each value of [removed], then add every
    value of [added], as one pass each: O(n + m log m) for n values held
    and m patched, however many rows one statement touches.  Both arrays
    are sorted in place.  Raises [Invalid_argument] if some removed value
    is not held; [t] is then unspecified. *)
