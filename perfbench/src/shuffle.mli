(** How a run's seed varies its inputs.

    Every workload generates its table data, statements and literal values
    from the generators' fixed seed.  The run's seed only permutes arrival
    order: the reads between two writes within each serve window, and the
    order advise-wide issues its requests in.  A window's contents, and
    the data each read sees, are what the advisor decides on (its
    cost-identity histogram, its measured I/O), so every seed leads to the
    same decisions and exactly the same [design_cost].  Runs at different
    seeds differ in arrival order, and so in caching and buffer-pool
    behaviour, but never in which decision path they time. *)

val within_blocks :
  seed:int -> block:int -> ?fixed:('a -> bool) -> 'a array -> 'a array
(** A copy of the array with each run of [block] consecutive elements (the
    last run may be shorter) shuffled uniformly, deterministically in
    [seed].  Elements [fixed] accepts (default: none) keep their positions
    and nothing moves across them.  Raises [Invalid_argument] if
    [block < 1]. *)
