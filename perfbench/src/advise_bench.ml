module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Structure = Cddpd_catalog.Structure
module Database = Cddpd_engine.Database
module Cost_model = Cddpd_engine.Cost_model
module Advisor = Cddpd_core.Advisor
module Problem = Cddpd_core.Problem
module Optimizer = Cddpd_core.Optimizer
module Solution = Cddpd_core.Solution
module Rng = Cddpd_util.Rng
module Obs = Cddpd_obs

type spec = {
  rows : int;
  value_range : int;
  columns : int;
  phases : int;
  templates_per_phase : int;
  steps : int;  (** steps in the whole trace *)
  window : int;  (** steps per advisor request *)
  stride : int;  (** steps the window slides between requests *)
  candidates : int;
  prune : int;
  max_configs : int;
  k : int;
}

let table = "w"

(* Statements per step; every fourth step ends with an UPDATE, so index
   maintenance stays in the EXEC costs. *)
let statements_per_step = 4

(* Concrete statements per template: the trace draws whole statements
   from a fixed pool, the way prepared statements repeat, which is what
   gives workload compression clusters to find. *)
let instances_per_template = 2

type input = {
  spec : spec;
  schema : Schema.table;
  requests : Ast.statement array array array;  (** one step array per request *)
  order : int array;  (** the order requests are issued in *)
}

(* A phased multi-template trace: per phase, 2-3-predicate point-query
   templates over that phase's 8 hot columns (phases overlap by 4
   columns), a few UPDATEs, and steps drawn from the phase's pools.  The
   table data and the trace come from a fixed seed; the run's seed only
   orders the requests (see Shuffle). *)
let fixed_seed = 11

let trace spec =
  let rng = Rng.create fixed_seed in
  let value () = Rng.int rng spec.value_range in
  let col phase = ((4 * phase) + Rng.int rng 8) mod spec.columns in
  let rec fresh phase taken =
    let c = col phase in
    if List.mem c taken then fresh phase taken else c
  in
  let pools =
    Array.init spec.phases (fun phase ->
        let templates =
          Array.init spec.templates_per_phase (fun _ ->
              let c1 = fresh phase [] in
              let c2 = fresh phase [ c1 ] in
              let preds =
                if Rng.int rng 2 = 0 then [ c1; c2 ] else [ c1; c2; fresh phase [ c1; c2 ] ]
              in
              (preds, col phase))
        in
        let selects =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun (preds, proj) ->
                    Array.init instances_per_template (fun _ ->
                        Parser.parse_exn
                          (Printf.sprintf "SELECT c%d FROM %s WHERE %s" proj table
                             (String.concat " AND "
                                (List.map
                                   (fun c -> Printf.sprintf "c%d = %d" c (value ()))
                                   preds)))))
                  templates))
        in
        let updates =
          Array.map
            (fun (preds, set_col) ->
              Parser.parse_exn
                (Printf.sprintf "UPDATE %s SET c%d = %d WHERE c%d = %d" table set_col
                   (value ()) (List.hd preds) (value ())))
            (Array.sub templates 0 (min 8 spec.templates_per_phase))
        in
        (selects, updates))
  in
  Array.init spec.steps (fun s ->
      let selects, updates = pools.(s * spec.phases / spec.steps) in
      let pick pool = pool.(Rng.int rng (Array.length pool)) in
      Array.init statements_per_step (fun q ->
          if q = statements_per_step - 1 && s mod 4 = 0 then pick updates
          else pick selects))

let input spec ~seed =
  let steps = trace spec in
  let n_requests = ((spec.steps - spec.window) / spec.stride) + 1 in
  {
    spec;
    schema =
      Schema.table table
        (List.init spec.columns (fun i -> (Printf.sprintf "c%d" i, Schema.Int_type)));
    requests =
      Array.init n_requests (fun r -> Array.sub steps (r * spec.stride) spec.window);
    order =
      Shuffle.within_blocks ~seed ~block:n_requests (Array.init n_requests Fun.id);
  }

let statements_of request =
  Array.fold_left (fun acc step -> acc + Array.length step) 0 request

(* Large enough to hold the table: nothing is executed, so the pool only
   serves statistics collection. *)
let pool_frames = 4096

let setup input =
  Gc.full_major ();
  Clock.time (fun () ->
      let db = Database.create ~pool_capacity:pool_frames [ input.schema ] in
      Database.load db ~table
        (Cddpd_workload.Data_gen.uniform_rows ~columns:input.spec.columns
           ~rows:input.spec.rows ~value_range:input.spec.value_range ~seed:fixed_seed);
      Database.analyze db;
      db)

(* Definition 1's b: room for one 3-column and one 1-column index, so the
   bound cuts pairs of wide composites out of the space. *)
let space_bound db =
  let params = Database.params db in
  let stats = Database.table_stats db table in
  let size columns =
    Cost_model.structure_size_bytes params ~stats
      (Structure.index (Index_def.make ~table ~columns))
  in
  size [ "c0"; "c1"; "c2" ] + size [ "c0" ]

let request input db steps ~jobs =
  {
    (Advisor.default_request ~steps ~table) with
    Advisor.max_candidates = Some input.spec.candidates;
    composite_width = Some 3;
    prune = Some input.spec.prune;
    compress_workload = true;
    max_configs = Some input.spec.max_configs;
    max_structures_per_config = Some 2;
    space_bound_bytes = Some (space_bound db);
    count_initial_change = true;
    k = Some input.spec.k;
    method_name = Solution.Kaware;
    jobs = Some jobs;
  }

(* Definition 1 and solver optimality on one recommendation: at most k
   changes, every design within b, the reported cost is the recomputed
   path cost, and no lower than the unconstrained optimum. *)
let recommendation_checks input db (rec_ : Advisor.recommendation) ~bound =
  let problem = rec_.Advisor.problem and solution = rec_.Advisor.solution in
  let params = Database.params db in
  let stats_of t = Database.table_stats db t in
  let unconstrained = (Optimizer.unconstrained problem).Solution.cost in
  [
    ("changes <= k", Problem.path_changes problem solution.Solution.path <= input.spec.k);
    ( "SIZE <= b",
      Array.for_all
        (fun design -> Cost_model.design_size_bytes params ~stats_of design <= bound)
        rec_.Advisor.schedule );
    ( "cost = recomputed path cost",
      Float.equal solution.Solution.cost (Problem.path_cost problem solution.Solution.path) );
    ( "cost >= unconstrained optimum",
      solution.Solution.cost >= unconstrained -. (1e-9 *. Float.abs unconstrained) );
  ]

type pass = {
  times_ns : int array;  (** per request *)
  costs : float array;  (** per request; nan when it failed *)
  failed : int;
  checks : (string * bool) list;
}

(* One pass over the requests, one caller, each Advisor.recommend timed on
   its own.  Checks are evaluated outside the timed calls, on the first
   pass only. *)
let advise_pass input db ~jobs ~check =
  let n = Array.length input.requests in
  let times_ns = Array.make n 0 and costs = Array.make n Float.nan in
  let failed = ref 0 and checks = ref [] in
  let bound = space_bound db in
  Array.iter
    (fun i ->
      let req = request input db input.requests.(i) ~jobs in
      let t0 = Clock.now_ns () in
      let result =
        match Advisor.recommend db req with
        | Ok recommendation -> Some recommendation
        | Error _ | (exception _) -> None
      in
      times_ns.(i) <- Clock.since_ns t0;
      match result with
      | None -> incr failed
      | Some recommendation ->
          costs.(i) <- recommendation.Advisor.solution.Solution.cost;
          if check then
            checks := recommendation_checks input db recommendation ~bound :: !checks)
    input.order;
  { times_ns; costs; failed = !failed; checks = Outcome.all_pass !checks }

(* Summed in request order, whatever order they were issued in. *)
let total_cost pass = Array.fold_left ( +. ) 0.0 pass.costs

let sizes_json input db =
  let s = input.spec in
  Json.Obj
    [
      ("rows", Json.Int s.rows);
      ( "heap_pages",
        Json.Int (Cddpd_engine.Table_stats.page_count (Database.table_stats db table)) );
      ("pool_frames", Json.Int pool_frames);
      ("columns", Json.Int s.columns);
      ("value_range", Json.Int s.value_range);
      ("trace_steps", Json.Int s.steps);
      ("statements_per_step", Json.Int statements_per_step);
      ("requests", Json.Int (Array.length input.requests));
      ("window_steps", Json.Int s.window);
      ("stride_steps", Json.Int s.stride);
      ("candidates", Json.Int s.candidates);
      ("prune", Json.Int s.prune);
      ("max_configs", Json.Int s.max_configs);
      ("k", Json.Int s.k);
    ]

let run_untraced input ~jobs ~seconds =
  (* Set up several times; only the last database is kept. *)
  let times = List.init (Measure.min_setups - 1) (fun _ -> snd (setup input)) in
  let db, last = setup input in
  let setups = last :: times in
  let first = ref true and peak_heap = ref 0.0 in
  let passes =
    Measure.repeat_for ~seconds ~min_calls:Measure.min_replays
      ~after_first:(fun () -> peak_heap := Measure.peak_heap_mb ())
      (fun () ->
        let pass = advise_pass input db ~jobs ~check:!first in
        first := false;
        pass)
  in
  (* Each request's time is the fastest of its readings across passes, as
     for statements in the serve workloads. *)
  let per_request_stmts = Array.map statements_of input.requests in
  let per_request_ms =
    Pct.position_minima
      (List.map (fun p -> Array.map (fun ns -> float_of_int ns /. 1e6) p.times_ns) passes)
  in
  let per_stmt_us =
    Pct.sorted
      (Array.mapi
         (fun i ms -> ms *. 1e3 /. float_of_int per_request_stmts.(i))
         per_request_ms)
  in
  let advise_s = Array.fold_left ( +. ) 0.0 per_request_ms /. 1e3 in
  let costs = List.map total_cost passes in
  let first_pass = List.hd passes in
  let samples = Array.length per_stmt_us in
  {
    Outcome.checks =
      first_pass.checks
      @ [
          ( "design_cost identical across passes",
            List.for_all (fun c -> Float.equal c (List.hd costs)) costs );
        ];
    attempted = Array.length input.requests * List.length passes;
    failed = List.fold_left (fun acc p -> acc + p.failed) 0 passes;
    metrics =
      Outcome.metrics_of Catalogue.end_to_end
        [
          ( "stmts_per_s",
            float_of_int (Array.fold_left ( + ) 0 per_request_stmts) /. advise_s );
          ("stmt_p50_us", Pct.percentile per_stmt_us 50.0);
          ("stmt_p99_us", Pct.percentile per_stmt_us 99.0);
          ("decision_p50_ms", Pct.median per_request_ms);
          ("design_cost", List.hd costs);
          ("setup_s", Pct.median (Array.of_list setups));
          ("peak_heap_mb", !peak_heap);
        ];
    info =
      [
        ("sizes", sizes_json input db);
        ("passes", Json.Int (List.length passes));
        ("setups", Json.Int (List.length setups));
        ("request_samples", Json.Int samples);
        ("samples_above_p99", Json.Int (Pct.above ~n:samples 99.0));
        ("space_bound_bytes", Json.Int (space_bound db));
      ];
  }

(* One traced set: an untraced pass (for the tracing overhead), then a
   pass with the program's counters and spans on that calls the two
   halves of Advisor.recommend itself — Advisor.build_problem and
   Optimizer.solve — timing each, and checks every solution against the
   untraced pass. *)
let traced_set input db ~jobs =
  let untraced = advise_pass input db ~jobs ~check:false in
  Obs.Registry.reset_values ();
  Obs.Span.reset ();
  Obs.Registry.enable ();
  let build_ns = ref 0 and solve_ns = ref 0 and configs = ref 0 in
  let same = ref true and failed = ref 0 in
  let t0 = Clock.now_ns () in
  Array.iter
    (fun i ->
      let req = request input db input.requests.(i) ~jobs in
      let b0 = Clock.now_ns () in
      let problem = Advisor.build_problem db req in
      build_ns := !build_ns + Clock.since_ns b0;
      configs := !configs + Problem.n_configs problem;
      let s0 = Clock.now_ns () in
      let solved =
        Optimizer.solve problem ~method_name:req.Advisor.method_name ?k:req.Advisor.k
          ?jobs:req.Advisor.jobs ()
      in
      solve_ns := !solve_ns + Clock.since_ns s0;
      match solved with
      | Ok solution ->
          if not (Float.equal solution.Solution.cost untraced.costs.(i)) then same := false
      | Error _ -> incr failed)
    input.order;
  let wall_ns = Clock.since_ns t0 in
  Obs.Registry.disable ();
  let snap = Obs.Snapshot.capture () in
  let counter name =
    float_of_int (Option.value ~default:0 (Obs.Snapshot.counter_value snap name))
  in
  let _, kaware_calls =
    Measure.span_sum (Measure.named "advisor.kaware") ~parent:None (Obs.Span.roots ())
  in
  let s = Clock.s_of_ns in
  let wall_s = s wall_ns and untraced_s = s (Array.fold_left ( + ) 0 untraced.times_ns) in
  let hits = counter "cost_cache.hits" in
  let accounting =
    [
      ("core.build_problem_s", s !build_ns);
      ("graph.solve_s", s !solve_ns);
      ("remainder", wall_s -. s !build_ns -. s !solve_ns);
    ]
  in
  let metrics =
    [
      ("core.build_problem_s", s !build_ns);
      ("core.whatif_calls", counter "cost_model.calls");
      ("core.cost_cache_hit_ratio", Measure.ratio hits (hits +. counter "cost_cache.misses"));
      ("core.configs", float_of_int !configs);
      ("core.clusters", counter "workload.clusters");
      ("graph.solve_s", s !solve_ns);
      ("graph.edges_relaxed", counter "advisor.kaware.edges_relaxed");
      ("graph.states_pruned", counter "advisor.kaware.states_pruned");
      ( "util.domains_used",
        Measure.ratio
          (counter "problem.build.domains_used" +. counter "advisor.kaware.domains_used")
          (counter "problem.builds" +. float_of_int kaware_calls) );
      ("trace.wall_s", wall_s);
      ("trace.untraced_wall_s", untraced_s);
      ("trace.overhead_s", wall_s -. untraced_s);
    ]
  in
  let checks =
    [
      ("traced solutions equal untraced recommendations", !same);
      ("no request fails only when traced", !failed = untraced.failed);
    ]
  in
  (metrics, accounting, checks, !failed)

let run_traced input ~jobs ~seconds =
  let db = fst (setup input) in
  let sets = Measure.repeat_for ~seconds (fun () -> traced_set input db ~jobs) in
  {
    Outcome.checks = Outcome.all_pass (List.map (fun (_, _, c, _) -> c) sets);
    attempted = Array.length input.requests * List.length sets;
    failed = List.fold_left (fun acc (_, _, _, f) -> acc + f) 0 sets;
    metrics =
      Outcome.metrics_of Catalogue.per_layer
        (Outcome.mean (List.map (fun (m, _, _, _) -> m) sets));
    info =
      [
        ("sizes", sizes_json input db);
        ("traced_sets", Json.Int (List.length sets));
        ( "accounting",
          Json.Obj
            (List.map
               (fun (n, v) -> (n, Json.Float v))
               (Outcome.mean (List.map (fun (_, a, _, _) -> a) sets))) );
      ];
  }
