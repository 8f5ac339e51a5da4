type size = Full | Tiny

(* Why each workload exists and its sizes are in NOTES.md. *)

let update_mix size =
  {
    Serve_bench.rows = (match size with Full -> 10_000 | Tiny -> 800);
    value_range = (match size with Full -> 2_000 | Tiny -> 160);
    pool = (match size with Full -> 24 | Tiny -> 4);
    trace = "W1";
    scale = (match size with Full -> 1.0 | Tiny -> 0.04);
    update_fraction = 0.01;
    window = (match size with Full -> 500 | Tiny -> 50);
    history = 4;
    k = 2;
  }

let drift_heavy size =
  {
    Serve_bench.rows = (match size with Full -> 2_000 | Tiny -> 300);
    value_range = (match size with Full -> 400 | Tiny -> 60);
    pool = 256;
    trace = "W2";
    scale = (match size with Full -> 2.0 | Tiny -> 0.04);
    update_fraction = 0.0;
    window = (match size with Full -> 50 | Tiny -> 10);
    history = (match size with Full -> 16 | Tiny -> 4);
    k = 4;
  }

let advise_wide size =
  match size with
  | Full ->
      {
        Advise_bench.rows = 4_000;
        value_range = 800;
        columns = 16;
        phases = 4;
        templates_per_phase = 32;
        steps = 128;
        window = 32;
        stride = 16;
        candidates = 100;
        prune = 64;
        max_configs = 512;
        k = 2;
      }
  | Tiny ->
      {
        Advise_bench.rows = 300;
        value_range = 60;
        columns = 16;
        phases = 2;
        templates_per_phase = 8;
        steps = 12;
        window = 6;
        stride = 6;
        candidates = 20;
        prune = 12;
        max_configs = 64;
        k = 2;
      }

let workloads = [ "update-mix"; "drift-heavy"; "advise-wide" ]

let default_jobs () = 1

let serve spec ~seed ~seconds ~trace ~jobs ~size =
  let input = Serve_bench.input (spec size) ~seed in
  if trace then Serve_bench.run_traced input ~jobs ~seconds
  else Serve_bench.run_untraced input ~jobs ~seconds ~full:(size = Full)

let run ~workload ~seed ~seconds ~trace ~jobs ~size =
  let cores = Env.cores () in
  if jobs > cores then
    Error
      (Printf.sprintf "refusing to request %d domains on %d cores" jobs cores)
  else if jobs < 1 then Error "jobs must be at least 1"
  else begin
    (* Paths that take no explicit job count use the process default. *)
    Cddpd_util.Parallel.set_default_jobs jobs;
    let outcome =
      match workload with
      | "update-mix" -> Some (serve update_mix ~seed ~seconds ~trace ~jobs ~size)
      | "drift-heavy" -> Some (serve drift_heavy ~seed ~seconds ~trace ~jobs ~size)
      | "advise-wide" ->
          let input = Advise_bench.input (advise_wide size) ~seed in
          Some
            (if trace then Advise_bench.run_traced input ~jobs ~seconds
             else Advise_bench.run_untraced input ~jobs ~seconds)
      | _ -> None
    in
    match outcome with
    | None ->
        Error
          (Printf.sprintf "unknown workload %s (%s)" workload
             (String.concat ", " workloads))
    | Some o ->
        Ok
          {
            o with
            Outcome.info =
              [
                ("workload", Json.String workload);
                ("seed", Json.Int seed);
                ("trace", Json.Bool trace);
                ("env", Env.to_json ~jobs);
              ]
              @ o.Outcome.info;
          }
  end
