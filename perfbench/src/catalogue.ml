let end_to_end =
  [
    ("stmts_per_s", "stmt/s");
    ("stmt_p50_us", "us");
    ("stmt_p99_us", "us");
    ("decision_p50_ms", "ms");
    ("design_cost", "pages");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let exec_groups = [ "full_scan"; "index_seek"; "index_only_scan"; "dml" ]

let per_layer =
  [
    ("sql.parse_s", "s");
    ("sql.parse_calls", "count");
    ("sql.template_hit_ratio", "ratio");
    ("engine.cost_key_s", "s");
    ("engine.cost_key_calls", "count");
    ("engine.stats_refresh_count", "count");
    ("engine.stats_refresh_s", "s");
  ]
  @ List.map (fun g -> ("engine.exec_s." ^ g, "s")) exec_groups
  @ List.map (fun g -> ("engine.exec_calls." ^ g, "count")) exec_groups
  @ [
      ("engine.plan_memo_hit_ratio", "ratio");
      ("engine.pages_per_row", "pages/row");
      ("engine.migrate_s", "s");
      ("engine.migrate_io", "pages");
      ("storage.logical_io", "pages");
      ("storage.physical_io", "pages");
      ("storage.hit_ratio", "ratio");
      ("storage.evictions", "count");
      ("storage.write_backs", "count");
      ("storage.scan_fetches", "count");
      ("serve.feed_s", "s");
      ("serve.close_s", "s");
      ("serve.unaccounted_s", "s");
      ("serve.reopt_s", "s");
      ("serve.deploy_s", "s");
      ("serve.reoptimizations", "count");
      ("serve.deployments", "count");
      ("serve.rollbacks", "count");
      ("serve.reopt_yield", "ratio");
      ("serve.deploy_yield", "ratio");
      ("core.build_problem_s", "s");
      ("core.whatif_calls", "count");
      ("core.cost_cache_hit_ratio", "ratio");
      ("core.configs", "count");
      ("core.clusters", "count");
      ("core.reopt.clusters_recosted", "count");
      ("core.reopt.trans_blocks_reused", "count");
      ("graph.solve_s", "s");
      ("graph.edges_relaxed", "count");
      ("graph.states_pruned", "count");
      ("util.domains_used", "domains");
      ("trace.wall_s", "s");
      ("trace.untraced_wall_s", "s");
      ("trace.overhead_s", "s");
    ]
