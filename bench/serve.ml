(* Incremental re-optimization across windows: BENCH_serve.json.

   One serve run over a phased trace, threading the persistent {!Reopt}
   session, with drift detection forced to re-optimize at every window
   close so the stable-phase windows expose the incremental rebuild.  At
   every window close the reference oracle rebuilds the same decision from
   scratch.  Instrumentation stays ENABLED: the headline is what-if call
   counts, and [cost_model.calls] is silent otherwise; the same counter
   measures each reference rebuild.

   Checked on every run, not just recorded: each window's decision must
   match the reference bit for bit, the stable-phase windows must make
   >= [min_stable_ratio] fewer what-if calls incrementally than the
   reference makes from scratch, and no stable-phase window may recost
   its whole cluster table. *)

module Reopt = Cddpd_core.Reopt
module Solution = Cddpd_core.Solution
module Compress = Cddpd_workload.Compress
module Cost_key = Cddpd_engine.Cost_key
module Cost_cache = Cddpd_engine.Cost_cache
module Parser = Cddpd_sql.Parser
module T = Cddpd_util.Text_table
open Harness

let rows = 4_000
let value_range = 800
let window = 50
let pool_size = 20
let phases = [| "a"; "a"; "a"; "b"; "b"; "b"; "a"; "a"; "c"; "c"; "a"; "a" |]
let min_stable_ratio = 5.0

(* Windows whose phase matches the previous window's: the cells where an
   online advisor should pay only the delta. *)
let stable = Array.mapi (fun i p -> i > 0 && String.equal p phases.(i - 1)) phases

let schema =
  Schema.table "t"
    [ ("a", Schema.Int_type); ("b", Schema.Int_type); ("c", Schema.Int_type);
      ("d", Schema.Int_type) ]

let db () = fst (load_table schema ~rows ~value_range ~seed:3)

(* Per phase column, a fixed pool of concrete point queries; windows draw
   from the pool round-robin, the way prepared statements repeat in a
   real trace.  Two windows of the same phase therefore carry the same
   cost-identity key set even though the loop serves every arriving
   statement individually — the stable-workload case the reuse path is
   built for. *)
let pools =
  List.map
    (fun column ->
      ( column,
        Array.init pool_size (fun i ->
            Parser.parse_exn
              (Printf.sprintf "SELECT * FROM t WHERE %s = %d" column
                 (1 + (i * 37 mod value_range)))) ))
    [ "a"; "b"; "c" ]

let phase_window phase =
  let pool = List.assoc phase pools in
  Array.init window (fun i -> pool.(i mod pool_size))

let config =
  {
    (Server.default_config ~table:"t") with
    Server.window;
    drift_threshold = -1.0;  (* re-optimize at every window close *)
    jobs = Some 1;
  }

(* What each window's re-optimization did: the reference rebuild from
   scratch, and the serve loop's incremental one. *)
type cell = {
  scratch_whatif : int;
  scratch_s : float;
  whatif : int;
  reopt_s : float;
  exec_reused : int;
  recosted : int;
  trans_reused : int;
}

(* The cluster-table size of each window's re-optimization problem,
   computed independently of the serve loop (same keys, same clustering,
   over the same [history] windows): the denominator for the "no stable
   window recosts everything" guard.  The trace has no DML, so the
   statistics — and with them the keys — are fixed for the whole run. *)
let cluster_tables () =
  let stats = Database.table_stats (db ()) "t" in
  Array.mapi
    (fun i _ ->
      let lo = max 0 (i - config.Server.history + 1) in
      let stmts =
        Array.concat (List.init (i - lo + 1) (fun j -> phase_window phases.(lo + j)))
      in
      let keys = Array.map (Cost_key.statement stats) stmts in
      Array.length (Compress.cluster_keys keys).Compress.representatives)
    phases

let stable_cells cells = List.filteri (fun i _ -> stable.(i)) (Array.to_list cells)

let run () =
  instrumented @@ fun () ->
  let trace = Array.concat (Array.to_list (Array.map phase_window phases)) in
  Printf.printf "trace: %d windows x %d statements, phases %s; re-optimizing every window\n%!"
    (Array.length phases) window
    (String.concat "" (Array.to_list phases));
  let cells = ref [] and digests = ref [] in
  let prev = ref (Problem.Reuse.tallies (Problem.Reuse.create ())) in
  let on_close server (w : Server.window_report) ~oracle_calls ~oracle_s =
    let now = (Server.reopt_stats server).Reopt.reuse in
    let dr f = f now - f !prev in
    digests := window_digest w :: !digests;
    cells :=
      {
        scratch_whatif = oracle_calls;
        scratch_s = oracle_s;
        whatif = w.Server.reopt_whatif_calls;
        reopt_s = w.Server.reopt_s;
        exec_reused = dr (fun t -> t.Problem.Reuse.exec_columns_reused);
        recosted = dr (fun t -> t.Problem.Reuse.clusters_recosted);
        trans_reused = dr (fun t -> t.Problem.Reuse.trans_blocks_reused);
      }
      :: !cells;
    prev := now
  in
  let server, timing =
    serve_checked ~what:"serve" ~feed:(fun s x -> Server.feed s x) ~on_close (db ())
      config ~trace trace
  in
  let stats = (Server.finish server).Server.reopt in
  let cells = Array.of_list (List.rev !cells) in
  let window_digest = digest_of_list (List.rev !digests) in
  if Array.length cells <> Array.length phases then
    failwith "serve: expected one closed window per phase entry";
  Printf.printf "every window matches the reference rebuild; window digest %s\n%!"
    window_digest;
  let clusters = cluster_tables () in
  print_table
    [
      ("window", T.Right); ("phase", T.Left); ("stable", T.Left); ("clusters", T.Right);
      ("scratch calls", T.Right); ("incr calls", T.Right); ("scratch ms", T.Right);
      ("incr ms", T.Right); ("cols reused", T.Right); ("recosted", T.Right);
      ("trans reused", T.Right);
    ]
    (Array.to_list
       (Array.mapi
          (fun i c ->
            [
              string_of_int i;
              phases.(i);
              (if stable.(i) then "yes" else "-");
              string_of_int clusters.(i);
              string_of_int c.scratch_whatif;
              string_of_int c.whatif;
              Printf.sprintf "%.1f" (c.scratch_s *. 1e3);
              Printf.sprintf "%.1f" (c.reopt_s *. 1e3);
              string_of_int c.exec_reused;
              string_of_int c.recosted;
              string_of_int c.trans_reused;
            ])
          cells));
  Array.iteri
    (fun i c ->
      if stable.(i) then begin
        if clusters.(i) <= 0 then failwith (Printf.sprintf "serve: window %d has no clusters" i);
        if c.recosted >= clusters.(i) then
          failwith
            (Printf.sprintf
               "serve: stable window %d recosted all %d clusters — the reuse path found \
                nothing to copy"
               i clusters.(i))
      end)
    cells;
  let stable_cells = stable_cells cells in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 stable_cells in
  let sum_s f = List.fold_left (fun acc c -> acc +. f c) 0.0 stable_cells in
  let calls_scratch = sum (fun c -> c.scratch_whatif) in
  let calls_incr = sum (fun c -> c.whatif) in
  let ratio = float_of_int calls_scratch /. float_of_int (max 1 calls_incr) in
  if ratio < min_stable_ratio then
    failwith
      (Printf.sprintf
         "serve: stable-window what-if ratio %.1fx below the %.0fx floor (%d from-scratch vs \
          %d incremental)"
         ratio min_stable_ratio calls_scratch calls_incr);
  let reopt_s_scratch = sum_s (fun c -> c.scratch_s) in
  let reopt_s_incr = sum_s (fun c -> c.reopt_s) in
  let tallies = stats.Reopt.reuse and cache = stats.Reopt.cache in
  Printf.printf
    "\nstable windows: %d what-if calls from scratch vs %d incremental (%.1fx), %.1fms vs \
     %.1fms re-optimizing\n%!"
    calls_scratch calls_incr ratio (reopt_s_scratch *. 1e3) (reopt_s_incr *. 1e3);
  Printf.printf
    "incremental session: %d builds, %d exec columns reused, %d clusters recosted, %d \
     trans blocks reused, cache %d/%d hit/miss\n%!"
    tallies.Problem.Reuse.builds tallies.Problem.Reuse.exec_columns_reused
    tallies.Problem.Reuse.clusters_recosted tallies.Problem.Reuse.trans_blocks_reused
    cache.Cost_cache.hits cache.Cost_cache.misses;
  Obj
    [
      ("schema", Str "cddpd-bench-serve/1");
      ("rows", Int rows);
      ("value_range", Int value_range);
      ("window", Int window);
      ("pool", Int pool_size);
      ("history", Int config.Server.history);
      ("k", Int config.Server.k);
      ("method", Str (Solution.method_to_string config.Server.method_name));
      ("jobs", Int 1);
      ("cores", Int (Parallel.ncpu ()));
      ("phases", Str (String.concat "" (Array.to_list phases)));
      ( "cells",
        List
          (Array.to_list
             (Array.mapi
                (fun i c ->
                  Obj
                    [
                      ("index", Int i);
                      ("phase", Str phases.(i));
                      ("stable", Bool stable.(i));
                      ("clusters", Int clusters.(i));
                      ("digest_equal", Bool true);
                      ( "from_scratch",
                        Obj
                          [
                            ("whatif_calls", Int c.scratch_whatif);
                            ("reopt_s", Float6 c.scratch_s);
                          ] );
                      ( "incremental",
                        Obj
                          [
                            ("whatif_calls", Int c.whatif);
                            ("reopt_s", Float6 c.reopt_s);
                            ("exec_columns_reused", Int c.exec_reused);
                            ("clusters_recosted", Int c.recosted);
                            ("trans_blocks_reused", Int c.trans_reused);
                          ] );
                    ])
                cells)) );
      ( "stable",
        Obj
          [
            ("windows", Int (List.length stable_cells));
            ("whatif_calls_from_scratch", Int calls_scratch);
            ("whatif_calls_incremental", Int calls_incr);
            ("whatif_ratio", Float ratio);
            ("reopt_s_from_scratch", Float6 reopt_s_scratch);
            ("reopt_s_incremental", Float6 reopt_s_incr);
            ("speedup", Float (reopt_s_scratch /. reopt_s_incr));
          ] );
      ( "totals",
        Obj
          [
            ("wall_incremental_s", Float6 (timing.ingest_s +. timing.close_s));
            ( "incremental",
              Obj
                [
                  ("reoptimizations", Int stats.Reopt.reoptimizations);
                  ("warm_start_bounds", Int stats.Reopt.warm_start_bounds);
                  ("builds", Int tallies.Problem.Reuse.builds);
                  ("exec_columns_reused", Int tallies.Problem.Reuse.exec_columns_reused);
                  ("clusters_recosted", Int tallies.Problem.Reuse.clusters_recosted);
                  ("trans_blocks_reused", Int tallies.Problem.Reuse.trans_blocks_reused);
                  ("stats_invalidations", Int tallies.Problem.Reuse.stats_invalidations);
                  ( "cache",
                    Obj
                      [
                        ("hits", Int cache.Cost_cache.hits);
                        ("misses", Int cache.Cost_cache.misses);
                        ("evictions", Int cache.Cost_cache.evictions);
                        ("generations", Int cache.Cost_cache.generations);
                      ] );
                ] );
            (* the oracle rebuilds exactly the windows the server re-optimized *)
            ( "from_scratch",
              Obj
                [
                  ("reoptimizations", Int stats.Reopt.reoptimizations);
                  ("warm_start_bounds", Int 0);
                ] );
          ] );
      ("window_digest", Str window_digest);
      ("digests_identical", Bool true);
    ]
