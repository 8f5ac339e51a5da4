(** Monotonic nanosecond timing for every figure the benchmark reports. *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic clock (arbitrary origin). *)

val since_ns : int -> int
(** [since_ns t0] is the nanoseconds elapsed since [t0 = now_ns ()]. *)

val s_of_ns : int -> float

val time : (unit -> 'a) -> 'a * float
(** The result of [f ()] and its wall time in seconds. *)
