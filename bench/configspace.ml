(* The design-space scaling pipeline: BENCH_configspace.json.

   End-to-end run of the scaled pipeline (Candidates.generate ->
   Pruner.score / dominance_prune / space -> Problem.build
   ~compress_workload:true -> solve) off the paper's 4-column table: a
   16-column table under a phased, template-based point-query workload,
   swept over candidate budget x sequence length.  Templates repeat, so
   workload compression has real clusters to find (the cost key depends
   on statement shape and selectivity, not literal values), and phases
   shift the hot columns so the solver has transitions worth paying for.

   Every timed run digests both matrices bit-exactly; the digests must
   agree across runs, and — wherever the exact arm stays affordable —
   with the reference oracle's matrices over the same space.  The JSON
   records the what-if accounting: measured calls for the
   pruned+compressed arm vs the naive per-statement construction over
   the unpruned space of the same configuration width. *)

module Config_space = Cddpd_core.Config_space
module Candidates = Cddpd_core.Candidates
module Pruner = Cddpd_core.Pruner
module Optimizer = Cddpd_core.Optimizer
module Solution = Cddpd_core.Solution
module Parser = Cddpd_sql.Parser
module Rng = Cddpd_util.Rng
module T = Cddpd_util.Text_table
open Harness

let runs = 3
let caps = [ 20; 100; 500 ]
let lengths = [ 64; 1024 ]
let stmts_per_step = 4
let rows = 4_000
let value_range = 800
let columns = 16
let phases = 4
let templates_per_phase = 32
let max_width = 3
let max_structures = 2
let max_configs = 512
let k = 2

(* The exact arm costs one what-if call per (statement, config):
   cross-check only where that stays affordable. *)
let exact_budget = 2_500_000

(* Concrete statement instances per template: the workload draws whole
   statements from a fixed pool, the way prepared statements repeat in a
   real trace.  The cost key hashes the histogram selectivity of each
   literal, so only exact repeats cluster — pool reuse is what gives
   workload compression real clusters to find. *)
let instances_per_template = 2

let schema =
  Schema.table "w" (List.init columns (fun i -> (Printf.sprintf "c%d" i, Schema.Int_type)))

(* Per phase, a fixed pool of 2-3-predicate point-query templates over that
   phase's 8 hot columns; phases overlap by 4 columns so candidates and
   clusters are shared across phase boundaries. *)
let templates =
  let rng = Rng.create 11 in
  Array.init phases (fun phase ->
      Array.init templates_per_phase (fun _ ->
          let col () = ((4 * phase) + Rng.int rng 8) mod columns in
          let fresh taken =
            let c = ref (col ()) in
            while List.mem !c taken do
              c := col ()
            done;
            !c
          in
          let c1 = fresh [] in
          let c2 = fresh [ c1 ] in
          let preds =
            if Rng.int rng 2 = 0 then [ c1; c2 ] else [ c1; c2; fresh [ c1; c2 ] ]
          in
          (preds, col ())))

(* Per phase, the concrete (parsed) statement pools the workload draws
   from: [instances_per_template] point queries per template, plus a
   small pool of updates (DML keeps index-maintenance cost in the
   benefit vectors). *)
let statement_pool =
  let rng = Rng.create 17 in
  let value () = Rng.int rng value_range in
  let selects = Array.make phases [||] in
  let updates = Array.make phases [||] in
  for phase = 0 to phases - 1 do
    let templates = templates.(phase) in
    selects.(phase) <-
      Array.concat
        (Array.to_list
           (Array.map
              (fun (preds, proj) ->
                Array.init instances_per_template (fun _ ->
                    let conj =
                      List.map (fun c -> Printf.sprintf "c%d = %d" c (value ())) preds
                    in
                    Parser.parse_exn
                      (Printf.sprintf "SELECT c%d FROM w WHERE %s" proj
                         (String.concat " AND " conj))))
              templates));
    updates.(phase) <-
      Array.map
        (fun (preds, set_col) ->
          Parser.parse_exn
            (Printf.sprintf "UPDATE w SET c%d = %d WHERE c%d = %d" set_col (value ())
               (List.hd preds) (value ())))
        (Array.sub templates 0 8)
  done;
  (selects, updates)

let workload n_steps =
  let selects, updates = statement_pool in
  let rng = Rng.create (100 + n_steps) in
  Array.init n_steps (fun s ->
      let phase = s * phases / n_steps in
      let pick pool = pool.(Rng.int rng (Array.length pool)) in
      Array.init stmts_per_step (fun q ->
          if q = stmts_per_step - 1 && s mod 4 = 0 then pick updates.(phase)
          else pick selects.(phase)))

let pipeline ~params ~stats_of ~steps ~flat cap =
  let candidates =
    Candidates.generate schema ~max_width ~max_candidates:cap flat
  in
  let scored = Pruner.score ~params ~stats_of ~steps candidates in
  let survivors, pruned = Pruner.dominance_prune scored in
  let space = Pruner.space ~max_structures ~max_configs survivors in
  let problem =
    Problem.build ~params ~stats_of ~steps ~space ~initial:Design.empty
      ~compress_workload:true ()
  in
  (candidates, survivors, pruned, problem)

let ratio a b = Float (float_of_int a /. float_of_int (max 1 b))

(* One table row and one JSON cell per (sequence length, cap). *)
let cell ~params ~stats_of n_steps cap =
  let steps = workload n_steps in
  let flat = Array.concat (Array.to_list steps) in
  let total_statements = Array.length flat in
  let digests = ref [] in
  let (candidates, survivors, pruned, problem), pipeline_s =
    Timer.time_median ~repeats:runs (fun () ->
        let ((_, _, _, problem) as r) = pipeline ~params ~stats_of ~steps ~flat cap in
        digests := matrix_digest problem :: !digests;
        r)
  in
  let digest = List.hd !digests in
  if List.exists (fun d -> not (String.equal d digest)) !digests then
    failwith (Printf.sprintf "configspace: matrices differ across runs at cap=%d n=%d" cap n_steps);
  let generated = List.length candidates in
  let n_survivors = List.length survivors in
  let clusters = match survivors with s :: _ -> Array.length s.Pruner.benefit | [] -> 0 in
  let n_configs = Config_space.size problem.Problem.space in
  (* Counters come from one instrumented (untimed) rerun. *)
  let delta = counters (fun () -> pipeline ~params ~stats_of ~steps ~flat cap) in
  let exec_skipped = counter delta "problem.exec_columns_skipped" in
  let trans_memoized = counter delta "problem.trans_builds_memoized" in
  let solution, solve_s =
    Timer.time (fun () ->
        match Optimizer.solve problem ~method_name:Solution.Merging ~k () with
        | Ok s -> s
        | Error _ -> failwith "configspace: merging solve failed")
  in
  let exact_checked =
    total_statements * n_configs <= exact_budget
    &&
    let exact =
      Reference.problem ~params ~stats_of ~steps ~space:problem.Problem.space
        ~initial:Design.empty ()
    in
    if not (String.equal (matrix_digest exact) digest) then
      failwith
        (Printf.sprintf "configspace: compressed matrices differ from the reference at cap=%d n=%d"
           cap n_steps);
    true
  in
  (* What-if accounting.  Measured: scoring pays one call per (cluster,
     candidate) plus the per-cluster base, EXEC pays one per (filled
     config, cluster), TRANS builds each surviving structure once.  Naive:
     per-statement EXEC over the unpruned space of the same width,
     per-pair TRANS. *)
  let measured =
    (clusters * (1 + generated)) + ((n_configs - exec_skipped) * clusters) + n_survivors
  in
  let naive_configs = 1 + generated + (generated * (generated - 1) / 2) in
  let naive = (total_statements * naive_configs) + (naive_configs * naive_configs) in
  let same_space = (total_statements * n_configs) + (n_configs * n_configs) in
  if cap = 500 && n_steps = 1024 then begin
    if n_configs < 500 then
      failwith (Printf.sprintf "configspace: only %d configs at the headline cell" n_configs);
    if n_survivors < 50 then
      failwith
        (Printf.sprintf "configspace: only %d surviving candidates at the headline cell"
           n_survivors);
    if measured * 10 > naive then
      failwith
        (Printf.sprintf "configspace: measured what-if %d not 10x below naive %d" measured
           naive)
  end;
  ( [
      string_of_int cap;
      string_of_int n_steps;
      string_of_int total_statements;
      string_of_int generated;
      string_of_int n_survivors;
      string_of_int clusters;
      string_of_int n_configs;
      Printf.sprintf "%.1f" (pipeline_s *. 1e3);
      Printf.sprintf "%.1f" (solve_s *. 1e3);
      string_of_int measured;
      string_of_int naive;
      Printf.sprintf "%.0fx" (float_of_int naive /. float_of_int (max 1 measured));
      (if exact_checked then "ok" else "-");
    ],
    Obj
      [
        ("candidates_cap", Int cap);
        ("n_steps", Int n_steps);
        ("statements", Int total_statements);
        ("generated", Int generated);
        ("survivors", Int n_survivors);
        ("pruned", Int pruned);
        ("prune_ratio", ratio pruned generated);
        ("clusters", Int clusters);
        ("compression_ratio", ratio total_statements clusters);
        ("configs", Int n_configs);
        ("exec_columns_skipped", Int exec_skipped);
        ("trans_builds_memoized", Int trans_memoized);
        ("pipeline_median_s", Float6 pipeline_s);
        ("solve_s", Float6 solve_s);
        ("solve_cost", Float solution.Solution.cost);
        ("changes", Int solution.Solution.changes);
        ( "whatif",
          Obj
            [
              ("measured", Int measured);
              ("naive_unpruned_configs", Int naive_configs);
              ("naive_unpruned", Int naive);
              ("ratio_vs_naive", ratio naive measured);
              ("same_space_per_statement", Int same_space);
              ("ratio_vs_same_space", ratio same_space measured);
            ] );
        ("digest", Str digest);
        ("exact_arm_checked", Bool exact_checked);
      ] )

let run () =
  quiet @@ fun () ->
  let db, _ = load_table schema ~rows ~value_range ~seed:7 in
  let params = Database.params db in
  let stats_of table = Database.table_stats db table in
  let table_rows, cells =
    List.split
      (List.concat_map
         (fun n_steps -> List.map (cell ~params ~stats_of n_steps) caps)
         lengths)
  in
  print_table
    [
      ("cap", T.Right); ("n", T.Right); ("stmts", T.Right); ("cand", T.Right);
      ("surv", T.Right); ("clusters", T.Right); ("configs", T.Right);
      ("pipeline ms", T.Right); ("solve ms", T.Right); ("what-if", T.Right);
      ("naive", T.Right); ("ratio", T.Right); ("exact", T.Left);
    ]
    table_rows;
  Obj
    [
      ("schema", Str "cddpd-bench-configspace/1");
      ("rows", Int rows);
      ("value_range", Int value_range);
      ("columns", Int columns);
      ("statements_per_step", Int stmts_per_step);
      ("runs", Int runs);
      ("cores", Int (Parallel.ncpu ()));
      ("max_width", Int max_width);
      ("max_structures", Int max_structures);
      ("max_configs", Int max_configs);
      ("k", Int k);
      ("cells", List cells);
    ]
