(* Benchmark harness: regenerates every table and figure of the paper
   (Voigt/Salem/Lehner, ICDE'08 workshops) and runs the tracked perf
   suites.

   Usage:
     main.exe [NAME | all]... [--rows N] [--value-range N] [--scale F]
              [--seed N] [--readahead N] [--quick] [--jobs N] [--cell-jobs N]
              [--no-metrics] [--out-dir DIR]
   NAME is a paper artifact (table1 table2 figure3 figure4 ablation updates
   views space) or a suite (solvers experiments configspace serve ingest
   micro).  With no NAME, everything runs.  --quick shrinks the instance
   for a fast smoke run; --rows 2500000 --value-range 500000 approaches the
   paper's physical scale.  --jobs sets the Problem.build parallelism
   (docs/PERFORMANCE.md).

   Each suite writes its BENCH_<suite>.json into --out-dir (default .).
   Instrumentation (lib/obs) is enabled for the run unless --no-metrics is
   given, and a JSON-lines metrics + span dump is written to
   BENCH_obs.json in the same directory so successive PRs can compare perf
   trajectories. *)

module Setup = Cddpd_experiments.Setup
module Session = Cddpd_experiments.Session
module Obs = Cddpd_obs
module Parallel = Cddpd_util.Parallel

type options = {
  names : string list;
  config : Setup.config;
  metrics : bool;
  out_dir : string;
  jobs : int option;
  cell_jobs : int option;
}

(* Paper artifacts: print to stdout, write nothing. *)
let artifacts =
  let module E = Cddpd_experiments in
  let with_session print run session = print (run (Lazy.force session)) in
  [
    ("table1", "Table 1: Workload Query Mixes", fun _ -> E.Table1.print (E.Table1.run ()));
    ( "table2",
      "Table 2: Dynamic Workloads and Physical Designs",
      with_session E.Table2.print E.Table2.run );
    ("figure3", "Figure 3: Relative Execution Times", with_session E.Figure3.print E.Figure3.run);
    ("figure4", "Figure 4: Optimizer Runtimes", with_session E.Figure4.print E.Figure4.run);
    ("ablation", "Ablation: solver comparison", with_session E.Ablation.print E.Ablation.run);
    ( "updates",
      "Updates ablation: queries and updates",
      with_session E.Updates.print E.Updates.run );
    ("views", "Views: scheduling materialized views", with_session E.Views.print E.Views.run);
    ( "space",
      "Space bound: SIZE(C) <= b sweep",
      with_session E.Space_bound.print E.Space_bound.run );
  ]

type suite = {
  name : string;
  banner : string;
  file : string;
  run : Setup.config -> Session.t Lazy.t -> Harness.json;
}

(* micro runs last: after Bechamel's Gc.compact calls, the OCaml 5.1
   runtime lets a later suite that spawns domains (experiments) grow its
   heap to gigabytes. *)
let suites =
  [
    {
      name = "solvers";
      banner = "Solvers: constrained-solver scaling over large design spaces";
      file = "BENCH_solvers.json";
      run = (fun _ _ -> Solvers.run ());
    };
    {
      name = "experiments";
      banner = "Experiments: parallel cell runner + bulk load";
      file = "BENCH_experiments.json";
      run = (fun config _ -> Experiments.run config);
    };
    {
      name = "configspace";
      banner = "Configspace: design-space scaling pipeline";
      file = "BENCH_configspace.json";
      run = (fun _ _ -> Configspace.run ());
    };
    {
      name = "serve";
      banner = "Serve: incremental re-optimization across windows";
      file = "BENCH_serve.json";
      run = (fun _ _ -> Serve.run ());
    };
    {
      name = "ingest";
      banner = "Ingest: serve statement fast path";
      file = "BENCH_ingest.json";
      run = (fun _ _ -> Ingest.run ());
    };
    {
      name = "micro";
      banner = "Bechamel micro-benchmarks";
      file = "BENCH_micro.json";
      run = Micro.run;
    };
  ]

let all_names =
  List.map (fun (name, _, _) -> name) artifacts @ List.map (fun s -> s.name) suites

let usage () =
  prerr_endline
    ("usage: main.exe [" ^ String.concat "|" all_names
   ^ "|all]... [--rows N] [--value-range N] [--scale F] [--seed N] [--readahead N] \
      [--quick] [--jobs N] [--cell-jobs N] [--no-metrics] [--out-dir DIR]");
  exit 2

let parse_args () =
  let names = ref [] in
  let config = ref Setup.default_config in
  let metrics = ref true in
  let out_dir = ref "." in
  let jobs = ref None in
  let cell_jobs = ref None in
  let positive v =
    let j = int_of_string v in
    if j < 1 then usage ();
    j
  in
  let rec go = function
    | [] -> ()
    | "--no-metrics" :: rest ->
        metrics := false;
        go rest
    | "--out-dir" :: v :: rest ->
        out_dir := v;
        go rest
    | "--jobs" :: v :: rest ->
        jobs := Some (positive v);
        go rest
    | "--cell-jobs" :: v :: rest ->
        cell_jobs := Some (positive v);
        go rest
    | "--rows" :: v :: rest ->
        config := { !config with Setup.rows = int_of_string v };
        go rest
    | "--value-range" :: v :: rest ->
        config := { !config with Setup.value_range = int_of_string v };
        go rest
    | "--scale" :: v :: rest ->
        config := { !config with Setup.scale = float_of_string v };
        go rest
    | "--seed" :: v :: rest ->
        config := { !config with Setup.seed = int_of_string v };
        go rest
    | "--readahead" :: v :: rest ->
        let r = int_of_string v in
        if r < 0 then usage ();
        config := { !config with Setup.readahead = r };
        go rest
    | "--quick" :: rest ->
        config := { !config with Setup.rows = 20_000; value_range = 4_000; scale = 0.2 };
        go rest
    | "all" :: rest ->
        names := List.rev_append all_names !names;
        go rest
    | name :: rest ->
        if List.mem name all_names then names := name :: !names else usage ();
        go rest
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ | Invalid_argument _ -> usage ());
  {
    names = (match List.rev !names with [] -> all_names | names -> names);
    config = !config;
    metrics = !metrics;
    out_dir = !out_dir;
    jobs = !jobs;
    cell_jobs = !cell_jobs;
  }

let banner title = Printf.printf "\n==== %s ====\n\n%!" title

(* Honesty clamp: more domains than cores measures scheduler thrash, not
   the code, so requested arms are capped at the machine. *)
let clamp_jobs what j =
  let cores = Parallel.ncpu () in
  if j > cores then begin
    Printf.printf "(%s clamped from %d to %d: %d core%s available)\n%!" what j cores cores
      (if cores = 1 then "" else "s");
    cores
  end
  else j

let () =
  let { names; config; metrics; out_dir; jobs; cell_jobs } = parse_args () in
  let jobs = Option.map (clamp_jobs "--jobs") jobs in
  let cell_jobs = Option.map (clamp_jobs "--cell-jobs") cell_jobs in
  Option.iter Parallel.set_default_jobs jobs;
  Option.iter Cddpd_experiments.Runner.set_default_cell_jobs cell_jobs;
  if metrics then Obs.Registry.enable ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Printf.printf
    "cddpd benchmark harness — rows=%d value_range=%d scale=%.2f seed=%d jobs=%d\n%!"
    config.Setup.rows config.Setup.value_range config.Setup.scale config.Setup.seed
    (Parallel.default_jobs ());
  let session =
    lazy
      (let session, load_s = Cddpd_util.Timer.time (fun () -> Session.create config) in
       Printf.printf "(session loaded in %.1fs)\n%!" load_s;
       session)
  in
  List.iter
    (fun name ->
      match List.find_opt (fun s -> String.equal s.name name) suites with
      | Some suite ->
          banner suite.banner;
          let path = Filename.concat out_dir suite.file in
          Harness.write_json path (suite.run config session);
          Printf.printf "\n(wrote %s)\n%!" path
      | None ->
          let _, title, run = List.find (fun (n, _, _) -> String.equal n name) artifacts in
          banner title;
          run session)
    names;
  if metrics then begin
    let path = Filename.concat out_dir "BENCH_obs.json" in
    Obs.Sink.write_file path Obs.Sink.Json_lines (Obs.Snapshot.capture ());
    Printf.printf "\n(wrote metrics snapshot + span tree to %s)\n%!" path
  end
