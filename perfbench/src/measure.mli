(** How a run repeats its work and reads its memory use and the
    program's spans. *)

val min_setups : int
(** Set-ups timed per run at least; [setup_s] is their median. *)

val min_replays : int
(** Replays (serve) or passes (advise-wide) an untraced run makes whatever
    its time budget: the fastest of each operation's readings
    ({!Pct.position_minima}) needs several readings to filter outside load
    out. *)

val repeat_for :
  ?after_first:(unit -> unit) -> ?min_calls:int -> seconds:float -> (unit -> 'a) -> 'a list
(** The results of calling [f] until [seconds] have passed and it ran at
    least [min_calls] (default 1) times, in call order.  [after_first]
    runs once, right after the first call. *)

val peak_heap_mb : unit -> float
(** [Gc] [top_heap_words] so far, in MB. *)

val ratio : float -> float -> float
(** [num /. den], or [0.] when [den] is [0.]. *)

val span_sum :
  (parent:string option -> string -> bool) ->
  parent:string option ->
  Cddpd_obs.Span.t list ->
  float * int
(** Total seconds and calls of the spans [select ~parent name] matches in
    a recorded span tree (pass [~parent:None] for the roots), without
    descending into a matched span. *)

val named : string -> parent:string option -> string -> bool
(** [named wanted] matches spans called [wanted], under any parent. *)
