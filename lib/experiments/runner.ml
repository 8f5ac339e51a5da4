module Parallel = Cddpd_util.Parallel
module Rng = Cddpd_util.Rng
module Obs = Cddpd_obs

let m_cells = Obs.Registry.counter "experiments.cells"
let m_cell_jobs = Obs.Registry.counter "experiments.cell_jobs_used"

type ctx = { label : string; rng : Rng.t }

type 'a cell = { label : string; body : ctx -> 'a }

let cell label body = { label; body }

(* cddpd-lint: allow domain-unsafe-state — set once by the CLI on the main domain before any fan-out; workers never touch it *)
let default = ref None

let default_cell_jobs () =
  match !default with
  | Some jobs -> jobs
  | None -> ( match Parallel.env_jobs () with Some jobs -> jobs | None -> Parallel.ncpu ())

let set_default_cell_jobs jobs =
  if jobs < 1 then invalid_arg "Runner.set_default_cell_jobs: jobs < 1";
  default := Some jobs

let run ?cell_jobs ?(seed = 0) cells =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  if n = 0 then []
  else begin
    let requested =
      match cell_jobs with Some jobs -> max 1 jobs | None -> default_cell_jobs ()
    in
    (* More domains than cores only measures scheduler thrash. *)
    let jobs = min (min requested n) (Parallel.ncpu ()) in
    Obs.Counter.add m_cells n;
    Obs.Counter.add m_cell_jobs jobs;
    (* Split one stream per cell up front, in declaration order, so cell
       i's stream depends only on [seed] and i — never on the domain
       count, chunking or join order. *)
    let master = Rng.create seed in
    let rngs = Array.init n (fun _ -> Rng.split master) in
    let run_cell i =
      let c = cells.(i) in
      Obs.Span.with_span "experiments.cell" (fun () ->
          c.body { label = c.label; rng = rngs.(i) })
    in
    let collect ~lo ~hi = List.init (hi - lo) (fun off -> run_cell (lo + off)) in
    if jobs = 1 then collect ~lo:0 ~hi:n
    else begin
      (* Cells are the unit of parallelism: pin the nested Parallel
         default to 1 for the duration of the fan-out so cell bodies
         (e.g. Problem.build inside a cell) don't oversubscribe the
         machine with nested domains.  Restored on the way out, including
         on exceptions (map_chunks joins every domain before re-raising). *)
      let saved = Parallel.default_jobs () in
      Parallel.set_default_jobs 1;
      Fun.protect
        ~finally:(fun () -> Parallel.set_default_jobs saved)
        (fun () -> List.concat (Parallel.map_chunks ~jobs ~n collect))
    end
  end
