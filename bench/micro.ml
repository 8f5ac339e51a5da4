(* Bechamel micro-benchmarks, one per paper artifact plus the SQL front
   end and the storage scan walks, and the median wall time of the
   session's Problem.build under the current --jobs: BENCH_micro.json.
   The micros run with instrumentation off so their timings are
   comparable run to run whatever the flags. *)

module Setup = Cddpd_experiments.Setup
module Session = Cddpd_experiments.Session
module Solution = Cddpd_core.Solution
module Optimizer = Cddpd_core.Optimizer
module Simulator = Cddpd_core.Simulator
module Mix = Cddpd_workload.Mix
module Rng = Cddpd_util.Rng
module Storage = Cddpd_storage
module T = Cddpd_util.Text_table
open Harness

let problem_build_runs = 3

let micros (session : Session.t) =
  let open Bechamel in
  let problem = session.Session.problem_w1 in
  let solve method_name k () =
    match Optimizer.solve problem ~method_name ?k () with
    | Ok _ -> ()
    | Error _ -> failwith "micro: solver failed"
  in
  (* A one-segment replay instance for the Figure 3 micro-bench: replaying
     the full workload per sample would take minutes. *)
  let segment = session.Session.steps_w1.(0) in
  let schedule =
    match Optimizer.solve problem ~method_name:Solution.Kaware ~k:2 () with
    | Ok s -> Solution.schedule problem s
    | Error _ -> failwith "micro: kaware failed"
  in
  let replay_segment () =
    ignore
      (Simulator.run session.Session.db ~steps:[| segment |]
         ~schedule:[| schedule.(0) |])
  in
  let sample_mix =
    let rng = Rng.create 99 in
    fun () ->
      for _ = 1 to 100 do
        ignore (Mix.sample_query Mix.mix_a ~table:"t" ~value_range:1000 rng)
      done
  in
  (* SQL front-end micros: the lexer's scratch-buffer/int fast paths and
     the template cache, over a pool of texts shaped like serve traffic. *)
  let sql_pool =
    Array.init 64 (fun i ->
        Printf.sprintf
          "SELECT a, b FROM t WHERE a = %d AND c BETWEEN %d AND %d AND d = 'v%d'"
          (1 + (i * 1_031 mod 50_000))
          (1 + (i * 157 mod 50_000))
          (41 + (i * 157 mod 50_000))
          (i mod 7))
  in
  let tokenize_pool () =
    Array.iter (fun s -> ignore (Cddpd_sql.Lexer.tokenize s)) sql_pool
  in
  let parse_pool () =
    Array.iter
      (fun s ->
        match Cddpd_sql.Parser.parse s with
        | Ok _ -> ()
        | Error _ -> failwith "micro: parse failed")
      sql_pool
  in
  let parse_cached_pool =
    let cache = Cddpd_sql.Template.create () in
    fun () ->
      Array.iter
        (fun s ->
          match Cddpd_sql.Parser.parse_cached cache s with
          | Ok _ -> ()
          | Error _ -> failwith "micro: parse_cached failed")
        sql_pool
  in
  let tests =
    Test.make_grouped ~name:"cddpd"
      [
        Test.make ~name:"sql/tokenize-64" (Staged.stage tokenize_pool);
        Test.make ~name:"sql/parse-64" (Staged.stage parse_pool);
        Test.make ~name:"sql/parse-cached-64" (Staged.stage parse_cached_pool);
        Test.make ~name:"table1/mix-sample-100" (Staged.stage sample_mix);
        Test.make ~name:"table2/unconstrained"
          (Staged.stage (solve Solution.Unconstrained None));
        Test.make ~name:"table2/kaware-k2" (Staged.stage (solve Solution.Kaware (Some 2)));
        Test.make ~name:"figure3/replay-1-segment" (Staged.stage replay_segment);
        Test.make ~name:"figure4/kaware-k18" (Staged.stage (solve Solution.Kaware (Some 18)));
        Test.make ~name:"figure4/merging-k2" (Staged.stage (solve Solution.Merging (Some 2)));
        Test.make ~name:"ablation/greedy-seq-k2"
          (Staged.stage (solve Solution.Greedy_seq (Some 2)));
        Test.make ~name:"ablation/hybrid-k10" (Staged.stage (solve Solution.Hybrid (Some 10)));
        Test.make ~name:"updates/blend-1-segment"
          (Staged.stage (fun () ->
               ignore
                 (Cddpd_workload.Dml_gen.blend ~update_fraction:0.3
                    ~value_range:session.Session.config.Setup.value_range ~seed:5
                    session.Session.steps_w1.(0))));
        Test.make ~name:"views/maintain-100-inserts"
          (Staged.stage
             (let pool =
                Storage.Buffer_pool.create ~capacity:512 (Storage.Disk.create ())
              in
              let heap = Storage.Heap_file.create pool in
              let rng = Rng.create 3 in
              for _ = 1 to 2000 do
                ignore
                  (Storage.Heap_file.insert heap
                     (Array.init 4 (fun _ -> Storage.Tuple.Int (Rng.int rng 50))))
              done;
              let view =
                Cddpd_engine.Mat_view.build pool Setup.schema heap
                  (Cddpd_catalog.View_def.make ~table:"t" ~group_by:"a")
              in
              fun () ->
                for _ = 1 to 100 do
                  Cddpd_engine.Mat_view.apply_insert view
                    (Array.init 4 (fun _ -> Storage.Tuple.Int (Rng.int rng 50)))
                done));
        Test.make ~name:"storage/heap-scan-104p-pool24-hot20"
          (Staged.stage
             (* The update-mix shape: a 10,000-row 4-int heap (104 pages)
                scanned through a 24-frame pool in which 20 referenced
                pages, touched before every scan, leave 4 frames to the
                scan and its readahead. *)
             (let disk = Storage.Disk.create () in
              let pool = Storage.Buffer_pool.create ~capacity:24 disk in
              let heap = Storage.Heap_file.create pool in
              let rng = Rng.create 3 in
              for _ = 1 to 10_000 do
                ignore
                  (Storage.Heap_file.insert heap
                     (Array.init 4 (fun _ -> Storage.Tuple.Int (Rng.int rng 2000))))
              done;
              let hot = Array.init 20 (fun _ -> Storage.Disk.allocate disk) in
              fun () ->
                Array.iter
                  (fun pid ->
                    Storage.Buffer_pool.unpin pool (Storage.Buffer_pool.fetch pool pid))
                  hot;
                let rows = ref 0 in
                Storage.Heap_file.iter_slices heap (fun ~page:_ ~slot:_ _buf _base ->
                    incr rows);
                assert (!rows = 10_000)));
        Test.make ~name:"storage/btree-range-10k-4int"
          (Staged.stage
             (let keys = Array.init 10_000 (fun i -> [| i / 1000; i / 100; i / 10; i |]) in
              let tree =
                Storage.Btree.bulk_load
                  (Storage.Buffer_pool.create ~capacity:512 (Storage.Disk.create ()))
                  ~key_len:4 keys
              in
              let lo = Array.make 4 min_int and hi = Array.make 4 max_int in
              fun () ->
                let entries = ref 0 in
                Storage.Btree.iter_range_slices tree ~lo ~hi (fun _buf _pos -> incr entries);
                assert (!entries = 10_000)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run (config : Setup.config) session =
  let session = Lazy.force session in
  let rows = quiet (fun () -> micros session) in
  print_table
    [ ("micro-benchmark", T.Left); ("ns/run", T.Right) ]
    (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.0f" ns ]) rows);
  let _, build_s =
    Timer.time_median ~repeats:problem_build_runs (fun () ->
        Setup.build_problem session.Session.db ~steps:session.Session.steps_w1)
  in
  Printf.printf "\nProblem.build median wall time: %.3fs (%d runs)\n%!" build_s
    problem_build_runs;
  Obj
    [
      ("schema", Str "cddpd-bench-micro/1");
      ("rows", Int config.Setup.rows);
      ("value_range", Int config.Setup.value_range);
      ("scale", Float config.Setup.scale);
      ("seed", Int config.Setup.seed);
      ("jobs", Int (Parallel.default_jobs ()));
      ("cores", Int (Parallel.ncpu ()));
      ("problem_build", Obj [ ("runs", Int problem_build_runs); ("median_s", Float build_s) ]);
      ( "micro",
        List
          (List.map
             (fun (name, ns) -> Obj [ ("name", Str name); ("ns_per_run", Float ns) ])
             rows) );
    ]
