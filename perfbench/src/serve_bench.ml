module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Template = Cddpd_sql.Template
module Design = Cddpd_catalog.Design
module Database = Cddpd_engine.Database
module Cost_key = Cddpd_engine.Cost_key
module Plan = Cddpd_engine.Plan
module Plan_cache = Cddpd_engine.Plan_cache
module Table_stats = Cddpd_engine.Table_stats
module Server = Cddpd_serve.Server
module Setup = Cddpd_experiments.Setup
module Dml_gen = Cddpd_workload.Dml_gen
module Trace = Cddpd_workload.Trace
module Obs = Cddpd_obs

type spec = {
  rows : int;
  value_range : int;
  pool : int;
  trace : string;
  scale : float;
  update_fraction : float;
  window : int;
  history : int;
  k : int;
}

type input = {
  spec : spec;
  config : Setup.config;
  texts : string array;
  update_share : float;
}

let table = Setup.table_name

(* The table data and the statements come from the experiments' fixed
   seed; the run's seed only shuffles the reads between writes within
   each window (see Shuffle). *)
let input spec ~seed =
  let config =
    {
      Setup.default_config with
      Setup.rows = spec.rows;
      value_range = spec.value_range;
      scale = spec.scale;
      pool_capacity = spec.pool;
    }
  in
  let statements =
    Array.concat
      (Array.to_list (Setup.workload_steps config (Setup.workload config spec.trace)))
  in
  let statements =
    if spec.update_fraction > 0.0 then
      Dml_gen.blend ~update_fraction:spec.update_fraction
        ~value_range:spec.value_range ~seed:config.Setup.seed statements
    else statements
  in
  let statements =
    Shuffle.within_blocks ~seed ~block:spec.window
      ~fixed:(fun s -> not (Ast.is_read_only s))
      statements
  in
  {
    spec;
    config;
    texts = Array.of_list (Trace.to_lines statements);
    update_share = Dml_gen.update_share statements;
  }

(* Set-up is Database.create + load + analyze (Setup.make_database); the
   trace is generated before and is not part of it.  Serve starts from
   the empty design, so there is no initial design to build. *)
let setup input =
  Gc.full_major ();
  Clock.time (fun () -> Setup.make_database input.config)

let server_config spec ~jobs =
  {
    (Server.default_config ~table) with
    Server.window = spec.window;
    history = spec.history;
    k = spec.k;
    jobs = Some jobs;
  }

let reoptimized (w : Server.window_report) =
  match w.Server.action with
  | Server.Held _ | Server.Deployed _ | Server.Rejected _ -> true
  | Server.No_action | Server.Rolled_back _ -> false

let design_cost (report : Server.report) =
  report.Server.exec_logical_io + report.Server.trans_logical_io

(* -- serve passes ----------------------------------------------------------- *)

(* What the benchmark keeps of one replay: the database and server are
   dropped so the next replay's heap starts clean. *)
type pass = {
  setup_s : float;
  heap_pages : int;
  wall_ns : int;
  latency_ns : int array;
  decisions : int list;  (** positions of the window-closing feeds that re-optimized *)
  feed_ns : int;  (** non-closing feed_sql calls *)
  close_ns : int;  (** window-closing feed_sql calls *)
  failed : int;
  report : Server.report;
  logical_io : int;
  physical_io : int;
  plan_memo : Plan_cache.stats;
  templates : Template.stats option;
  counters : Obs.Snapshot.t option;
  spans : Obs.Span.t list;
}

(* One closed-loop replay with one caller: every text goes through
   Server.feed_sql and the caller waits for the result before sending the
   next, as [cddpd serve --input] replays a trace.  A statement that
   returns Error or raises is counted and the replay goes on.  [traced]
   switches the program's own counters and spans on for the feed loop
   only. *)
let serve_pass input ~jobs ~traced =
  let db, setup_s = setup input in
  let heap_pages = Table_stats.page_count (Database.table_stats db table) in
  let server = Server.create db (server_config input.spec ~jobs) in
  let n = Array.length input.texts in
  let latency_ns = Array.make n 0 in
  let decisions = ref [] and feed_ns = ref 0 and close_ns = ref 0 in
  let failed = ref 0 in
  if traced then begin
    Obs.Registry.reset_values ();
    Obs.Span.reset ();
    Obs.Registry.enable ()
  end;
  let logical0, physical0 = Database.io_counters db in
  let t0 = Clock.now_ns () in
  for i = 0 to n - 1 do
    let start = Clock.now_ns () in
    let result =
      match Server.feed_sql server input.texts.(i) with
      | result -> result
      | exception e -> Error (Printexc.to_string e)
    in
    let elapsed = Clock.since_ns start in
    latency_ns.(i) <- elapsed;
    match result with
    | Ok (Some w) ->
        close_ns := !close_ns + elapsed;
        if reoptimized w then decisions := i :: !decisions
    | Ok None -> feed_ns := !feed_ns + elapsed
    | Error _ ->
        incr failed;
        feed_ns := !feed_ns + elapsed
  done;
  let wall_ns = Clock.since_ns t0 in
  let logical1, physical1 = Database.io_counters db in
  let counters, spans =
    if traced then begin
      Obs.Registry.disable ();
      (Some (Obs.Snapshot.capture ()), Obs.Span.roots ())
    end
    else (None, [])
  in
  {
    setup_s;
    heap_pages;
    wall_ns;
    latency_ns;
    decisions = List.rev !decisions;
    feed_ns = !feed_ns;
    close_ns = !close_ns;
    failed = !failed;
    report = Server.finish server;
    logical_io = logical1 - logical0;
    physical_io = physical1 - physical0;
    plan_memo = Database.plan_cache_stats db;
    templates = Server.template_stats server;
    counters;
    spans;
  }

(* fed = statements + failed, and the closed windows plus the residual
   cover every statement served. *)
let accounting_ok input pass =
  let r = pass.report in
  let windowed =
    Array.fold_left (fun acc w -> acc + w.Server.n_statements) 0 r.Server.windows
  in
  Array.length input.texts = r.Server.statements + pass.failed
  && windowed + r.Server.residual_statements = r.Server.statements

let extra_setups input ~have =
  List.init (max 0 (Measure.min_setups - have)) (fun _ -> snd (setup input))

let us_of_ns ns = float_of_int ns /. 1e3

let sizes_json input ~heap_pages =
  let s = input.spec in
  Json.Obj
    [
      ("rows", Json.Int s.rows);
      ("value_range", Json.Int s.value_range);
      ("heap_pages", Json.Int heap_pages);
      ("pool_frames", Json.Int s.pool);
      ("trace", Json.String s.trace);
      ("statements", Json.Int (Array.length input.texts));
      ("update_share", Json.Float input.update_share);
      ("window", Json.Int s.window);
      ("history", Json.Int s.history);
      ("k", Json.Int s.k);
    ]

let p99_min_above = 150

let run_untraced input ~jobs ~seconds ~full =
  (* The peak heap is read after the first replay: later replays reuse a
     heap that fragmentation has grown, so a reading taken at the end would
     depend on how many replays fit in [seconds]. *)
  let peak_heap = ref 0.0 in
  let passes =
    Measure.repeat_for ~seconds ~min_calls:Measure.min_replays
      ~after_first:(fun () -> peak_heap := Measure.peak_heap_mb ())
      (fun () -> serve_pass input ~jobs ~traced:false)
  in
  let first = List.hd passes in
  let n = Array.length input.texts in
  let setups =
    List.map (fun p -> p.setup_s) passes
    @ extra_setups input ~have:(List.length passes)
  in
  (* Every replay does the same work statement by statement (the design
     costs and decision positions below must agree), so each statement's
     latency is the fastest of its readings across replays (see
     Pct.position_minima); throughput is the statement count over the sum
     of those latencies. *)
  let per_statement =
    Pct.position_minima
      (List.map (fun p -> Array.map us_of_ns p.latency_ns) passes)
  in
  let latencies = Pct.sorted per_statement in
  let samples = Array.length latencies in
  let decisions =
    Array.of_list
      (List.map (fun i -> per_statement.(i) /. 1e3) first.decisions)
  in
  let replay_s = Array.fold_left ( +. ) 0.0 per_statement /. 1e6 in
  let costs = List.map (fun p -> design_cost p.report) passes in
  let above_p99 = Pct.above ~n:samples 99.0 in
  let tail = Pct.highest_supported samples in
  let checks =
    [
      ("statement accounting", List.for_all (accounting_ok input) passes);
      ( "design_cost identical across replays",
        List.for_all (fun c -> c = List.hd costs) costs );
      ( "decisions at the same statements in every replay",
        List.for_all (fun p -> p.decisions = first.decisions) passes );
      ("at least one decision", Array.length decisions > 0);
    ]
    @
    if full then
      [ (Printf.sprintf "p99 has >= %d samples above it" p99_min_above,
         above_p99 >= p99_min_above) ]
    else []
  in
  let r = first.report in
  {
    Outcome.checks;
    attempted = n * List.length passes;
    failed = List.fold_left (fun acc p -> acc + p.failed) 0 passes;
    metrics =
      Outcome.metrics_of Catalogue.end_to_end
        [
          ("stmts_per_s", float_of_int n /. replay_s);
          ("stmt_p50_us", Pct.percentile latencies 50.0);
          ("stmt_p99_us", Pct.percentile latencies 99.0);
          ("decision_p50_ms", Pct.median decisions);
          ("design_cost", float_of_int (List.hd costs));
          ("setup_s", Pct.median (Array.of_list setups));
          ("peak_heap_mb", !peak_heap);
        ];
    info =
      [
        ("sizes", sizes_json input ~heap_pages:first.heap_pages);
        ("replays", Json.Int (List.length passes));
        ("setups", Json.Int (List.length setups));
        ("latency_samples", Json.Int samples);
        ("samples_above_p99", Json.Int above_p99);
        ( "tail",
          match tail with
          | Some p ->
              Json.Obj
                [
                  ("percentile", Json.Float p);
                  ("us", Json.Float (Pct.percentile latencies p));
                  ("samples_above", Json.Int (Pct.above ~n:samples p));
                ]
          | None -> Json.String "too few samples" );
        ("decision_samples", Json.Int (Array.length decisions));
        ("windows", Json.Int (Array.length r.Server.windows));
        ("reoptimizations", Json.Int r.Server.reoptimizations);
        ("deployments", Json.Int r.Server.deployments);
        ("rollbacks", Json.Int r.Server.rollbacks);
        ("exec_logical_io", Json.Int r.Server.exec_logical_io);
        ("trans_logical_io", Json.Int r.Server.trans_logical_io);
        ("final_design", Json.String (Design.name r.Server.final_design));
      ];
  }

(* -- layer replay ----------------------------------------------------------- *)

(* The layer replay repeats, outside the server, the calls Server.feed
   makes into the sql and engine layers, in the same order, and times
   each one:
   - per statement: Parser.parse_cached; for a read, the statistics
     generation and, unless the text's cached key is from that generation,
     Database.table_stats + Cost_key.statement; then Database.execute with
     the plan-memo key and the template's validation flag;
   - per window close: Database.table_stats, Cost_key.statement for every
     statement keyed under an older generation (or not at all: DML), then
     Database.migrate_to the design the serve run used for the next
     window.
   The same statistics calls in the same places give the same plans, so
   each window's logical I/O must equal the serve run's. *)

let exec_group statement (result : Database.exec_result) =
  if not (Ast.is_read_only statement) then 3
  else
    match result.Database.plan with
    | Some { Plan.path = Plan.Full_scan; _ } -> 0
    | Some { Plan.path = Plan.Index_seek _; _ } -> 1
    | Some { Plan.path = Plan.Index_only_scan _; _ } -> 2
    | Some { Plan.path = Plan.View_probe _; _ } | None ->
        invalid_arg "layer replay: the serve workloads issue no aggregates"

let statement_table = function
  | Ast.Select { table; _ }
  | Ast.Select_agg { table; _ }
  | Ast.Insert { table; _ }
  | Ast.Delete { table; _ }
  | Ast.Update { table; _ } ->
      table

type layers = {
  mutable parse_ns : int;
  mutable parse_calls : int;
  mutable key_ns : int;
  mutable key_calls : int;
  exec_ns : int array;
  exec_calls : int array;
  mutable migrate_ns : int;
  mutable migrate_io : int;
  mutable exec_io : int;
  mutable rows_returned : int;
  mutable window_mismatches : int;
  mutable failed : int;
}

let timed_ns f =
  let t0 = Clock.now_ns () in
  let result = f () in
  (result, Clock.since_ns t0)

let layer_replay input (report : Server.report) =
  let db, _ = setup input in
  let windows = report.Server.windows in
  let l =
    {
      parse_ns = 0;
      parse_calls = 0;
      key_ns = 0;
      key_calls = 0;
      exec_ns = Array.make 4 0;
      exec_calls = Array.make 4 0;
      migrate_ns = 0;
      migrate_io = 0;
      exec_io = 0;
      rows_returned = 0;
      window_mismatches = 0;
      failed = 0;
    }
  in
  let cache = Template.create () in
  let tracker = Refresh.create db table in
  let key stats statement =
    let key, ns = timed_ns (fun () -> Cost_key.statement stats statement) in
    l.key_ns <- l.key_ns + ns;
    l.key_calls <- l.key_calls + 1;
    key
  in
  let pending = ref [] and fill = ref 0 and window_io = ref 0 and index = ref 0 in
  let close () =
    let stats = Refresh.table_stats tracker in
    let gen = Database.stats_generation db table in
    List.iter (fun (s, g) -> if g <> gen then ignore (key stats s)) !pending;
    let w = !index in
    if w >= Array.length windows || windows.(w).Server.exec_logical_io <> !window_io
    then l.window_mismatches <- l.window_mismatches + 1;
    let target =
      if w + 1 < Array.length windows then windows.(w + 1).Server.design
      else report.Server.final_design
    in
    if not (Design.equal target (Database.current_design db)) then begin
      let before, _ = Database.io_counters db in
      let (), ns = timed_ns (fun () -> Database.migrate_to db target) in
      let after, _ = Database.io_counters db in
      l.migrate_ns <- l.migrate_ns + ns;
      l.migrate_io <- l.migrate_io + (after - before)
    end;
    pending := [];
    fill := 0;
    window_io := 0;
    incr index
  in
  Obs.Registry.enable ();
  Array.iter
    (fun text ->
      let parsed, ns = timed_ns (fun () -> Parser.parse_cached cache text) in
      l.parse_ns <- l.parse_ns + ns;
      l.parse_calls <- l.parse_calls + 1;
      match parsed with
      | Error _ -> l.failed <- l.failed + 1
      | Ok entry -> (
          let statement = entry.Template.statement in
          let read_only = Ast.is_read_only statement in
          let key, gen =
            if read_only then begin
              let gen = Database.stats_generation db table in
              match entry.Template.cost_tag with
              | Some (g, key) when g = gen -> (key, gen)
              | Some _ | None ->
                  let stats = Refresh.table_stats tracker in
                  let key = key stats statement in
                  entry.Template.cost_tag <- Some (gen, key);
                  (key, gen)
            end
            else ("", -1)
          in
          let statement_key =
            if read_only && String.equal (statement_table statement) table then
              Some key
            else None
          in
          match
            timed_ns (fun () ->
                Database.execute ?statement_key
                  ~skip_check:entry.Template.validated db statement)
          with
          | exception _ -> l.failed <- l.failed + 1
          | result, ns ->
              entry.Template.validated <- true;
              let g = exec_group statement result in
              l.exec_ns.(g) <- l.exec_ns.(g) + ns;
              l.exec_calls.(g) <- l.exec_calls.(g) + 1;
              l.exec_io <- l.exec_io + result.Database.logical_io;
              l.rows_returned <- l.rows_returned + List.length result.Database.rows;
              window_io := !window_io + result.Database.logical_io;
              pending := (statement, gen) :: !pending;
              incr fill;
              if !fill = input.spec.window then close ()))
    input.texts;
  Obs.Registry.disable ();
  let io_ok =
    l.window_mismatches = 0
    && !index = Array.length windows
    && l.exec_io = report.Server.exec_logical_io
    && l.migrate_io = report.Server.trans_logical_io
  in
  (l, tracker, io_ok)

(* -- traced run ------------------------------------------------------------- *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let counter snapshot name =
  float_of_int
    (Option.value ~default:0
       (Option.bind snapshot (fun s -> Obs.Snapshot.counter_value s name)))

type traced_set = {
  metrics : (string * float) list;
  accounting : (string * float) list;
  checks : (string * bool) list;
  traced : pass;
}

(* One traced set: an untraced replay (for the tracing overhead), a replay
   with the program's counters and spans on, and the layer replay.  The
   rows [accounting] lists are disjoint and, with the remainder, add up to
   the traced replay's wall time. *)
let traced_set input ~jobs =
  let untraced = serve_pass input ~jobs ~traced:false in
  let traced = serve_pass input ~jobs ~traced:true in
  let l, tracker, io_ok = layer_replay input traced.report in
  let r = traced.report in
  let snap = traced.counters in
  let spans = traced.spans in
  let s = Clock.s_of_ns in
  let wall_s = s traced.wall_ns in
  let reopt_s =
    Array.fold_left (fun acc w -> acc +. w.Server.reopt_s) 0.0 r.Server.windows
  in
  let sum select = Measure.span_sum select ~parent:None spans in
  let deploy_s, _ = sum (Measure.named "serve.deploy") in
  let deploy_in_reopt_s, _ =
    sum (fun ~parent name ->
        String.equal name "serve.deploy" && parent = Some "serve.reoptimize")
  in
  let build_s, _ = sum (Measure.named "problem.build") in
  let solve_s, _ = sum (fun ~parent:_ name -> starts_with "optimizer." name) in
  let _, kaware_calls = sum (Measure.named "advisor.kaware") in
  let cost_key_s = s l.key_ns +. Refresh.lookup_s tracker in
  let exec_s g = s l.exec_ns.(g) in
  let accounting =
    [
      ("sql.parse_s", s l.parse_ns);
      ("engine.cost_key_s", cost_key_s);
      ("engine.stats_refresh_s", Refresh.refresh_s tracker);
    ]
    @ List.mapi (fun g name -> ("engine.exec_s." ^ name, exec_s g)) Catalogue.exec_groups
    @ [
        ("serve.reopt_s - deploy", reopt_s -. deploy_in_reopt_s);
        ("serve.deploy_s", deploy_s);
      ]
  in
  let unaccounted = wall_s -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 accounting in
  let templates =
    match traced.templates with
    | Some t ->
        let hits = float_of_int (t.Template.exact_hits + t.Template.template_hits) in
        Measure.ratio hits (hits +. float_of_int t.Template.misses)
    | None -> 0.0
  in
  let memo =
    let h = float_of_int traced.plan_memo.Plan_cache.hits in
    Measure.ratio h (h +. float_of_int traced.plan_memo.Plan_cache.misses)
  in
  let logical = float_of_int traced.logical_io in
  let physical = float_of_int traced.physical_io in
  let deployments = float_of_int r.Server.deployments in
  let rollbacks = float_of_int r.Server.rollbacks in
  let reoptimizations = float_of_int r.Server.reoptimizations in
  let cache_hits = counter snap "cost_cache.hits" in
  let domain_calls = counter snap "problem.builds" +. float_of_int kaware_calls in
  let metrics =
    [
      ("sql.parse_s", s l.parse_ns);
      ("sql.parse_calls", float_of_int l.parse_calls);
      ("sql.template_hit_ratio", templates);
      ("engine.cost_key_s", cost_key_s);
      ("engine.cost_key_calls", float_of_int l.key_calls);
      ("engine.stats_refresh_count", float_of_int (Refresh.refreshes tracker));
      ("engine.stats_refresh_s", Refresh.refresh_s tracker);
    ]
    @ List.mapi (fun g name -> ("engine.exec_s." ^ name, exec_s g)) Catalogue.exec_groups
    @ List.mapi
        (fun g name -> ("engine.exec_calls." ^ name, float_of_int l.exec_calls.(g)))
        Catalogue.exec_groups
    @ [
        ("engine.plan_memo_hit_ratio", memo);
        ( "engine.pages_per_row",
          Measure.ratio (float_of_int l.exec_io) (float_of_int l.rows_returned) );
        ("engine.migrate_s", s l.migrate_ns);
        ("engine.migrate_io", float_of_int l.migrate_io);
        ("storage.logical_io", logical);
        ("storage.physical_io", physical);
        ( "storage.hit_ratio",
          let hits = counter snap "buffer_pool.hits" in
          Measure.ratio hits (hits +. counter snap "buffer_pool.misses") );
        ("storage.evictions", counter snap "buffer_pool.evictions");
        ("storage.write_backs", counter snap "buffer_pool.write_backs");
        ("storage.scan_fetches", counter snap "buffer_pool.scan_fetches");
        ("serve.feed_s", s traced.feed_ns);
        ("serve.close_s", s traced.close_ns);
        ("serve.unaccounted_s", unaccounted);
        ("serve.reopt_s", reopt_s);
        ("serve.deploy_s", deploy_s);
        ("serve.reoptimizations", reoptimizations);
        ("serve.deployments", deployments);
        ("serve.rollbacks", rollbacks);
        ("serve.reopt_yield", Measure.ratio deployments reoptimizations);
        ("serve.deploy_yield", Measure.ratio (deployments -. rollbacks) deployments);
        ("core.build_problem_s", build_s);
        ("core.whatif_calls", counter snap "cost_model.calls");
        ( "core.cost_cache_hit_ratio",
          Measure.ratio cache_hits (cache_hits +. counter snap "cost_cache.misses") );
        ("core.clusters", counter snap "workload.clusters");
        ( "core.reopt.clusters_recosted",
          float_of_int r.Server.reopt.Cddpd_core.Reopt.reuse.Cddpd_core.Problem.Reuse.clusters_recosted );
        ( "core.reopt.trans_blocks_reused",
          float_of_int r.Server.reopt.Cddpd_core.Reopt.reuse.Cddpd_core.Problem.Reuse.trans_blocks_reused );
        ("graph.solve_s", solve_s);
        ("graph.edges_relaxed", counter snap "advisor.kaware.edges_relaxed");
        ("graph.states_pruned", counter snap "advisor.kaware.states_pruned");
        ( "util.domains_used",
          Measure.ratio
            (counter snap "problem.build.domains_used"
            +. counter snap "advisor.kaware.domains_used")
            domain_calls );
        ("trace.wall_s", wall_s);
        ("trace.untraced_wall_s", s untraced.wall_ns);
        ("trace.overhead_s", wall_s -. s untraced.wall_ns);
      ]
  in
  let checks =
    [
      ("statement accounting", accounting_ok input untraced && accounting_ok input traced);
      ( "traced design_cost equals untraced",
        design_cost traced.report = design_cost untraced.report );
      ("layer replay per-window logical I/O equals serve", io_ok);
      ("layer replay fails what serve fails", l.failed = traced.failed);
    ]
  in
  {
    metrics;
    accounting = accounting @ [ ("remainder", unaccounted) ];
    checks;
    traced;
  }

(* Averages the traced sets made within [seconds]; counts repeat exactly
   from set to set, so only the times are really averaged, and the
   accounting identity survives averaging. *)
let run_traced input ~jobs ~seconds =
  let sets = Measure.repeat_for ~seconds (fun () -> traced_set input ~jobs) in
  let first = List.hd sets in
  {
    Outcome.checks = Outcome.all_pass (List.map (fun set -> set.checks) sets);
    attempted = Array.length input.texts * List.length sets;
    failed = List.fold_left (fun acc set -> acc + set.traced.failed) 0 sets;
    metrics =
      Outcome.metrics_of Catalogue.per_layer
        (Outcome.mean (List.map (fun set -> set.metrics) sets));
    info =
      [
        ("sizes", sizes_json input ~heap_pages:first.traced.heap_pages);
        ("traced_sets", Json.Int (List.length sets));
        ( "accounting",
          Json.Obj
            (List.map
               (fun (name, v) -> (name, Json.Float v))
               (Outcome.mean (List.map (fun set -> set.accounting) sets))) );
      ];
  }
