(* Parallel cell runner and scan-optimized storage: BENCH_experiments.json.

   A reduced figure3+figure4 sweep (the two paper artifacts dominated by,
   respectively, engine replay I/O and solver runtime), run through the
   parallel cell runner under every arm of {cell_jobs} x {readahead
   on/off}.  Each arm reports the median of [runs] wall times plus a
   digest of every deterministic output field; the digests must agree
   across all arms — that is the bit-identity claim of the cell runner
   and the logical-I/O-invariance claim of readahead, checked on every
   run.  A bulk load of [bulk_rows] rows must leave the same queryable
   state as a row-at-a-time load. *)

module Setup = Cddpd_experiments.Setup
module Session = Cddpd_experiments.Session
module Figure3 = Cddpd_experiments.Figure3
module Figure4 = Cddpd_experiments.Figure4
module Buffer_pool = Cddpd_storage.Buffer_pool
module T = Cddpd_util.Text_table
open Harness

let runs = 3
let cell_jobs_arms = [ 1; 2 ]
let ks = [ 2; 6; 10 ]
let repeats = 2
let bulk_rows = 100_000

let reduced (config : Setup.config) =
  {
    config with
    Setup.rows = min config.Setup.rows 10_000;
    value_range = min config.Setup.value_range 2_000;
    scale = Float.min config.Setup.scale 0.1;
  }

(* %h prints the exact hex representation, so the digest is bit-precise. *)
let figure3_digest (r : Figure3.result) =
  String.concat ";"
    (Printf.sprintf "base=%d" r.Figure3.baseline_io
    :: List.map
         (fun m ->
           Printf.sprintf "%s:%d:%d:%h:%h" m.Figure3.workload
             m.Figure3.unconstrained_io m.Figure3.constrained_io
             m.Figure3.relative_unconstrained m.Figure3.relative_constrained)
         r.Figure3.measurements)

let figure4_cost_digest (r : Figure4.result) =
  String.concat ";"
    (Printf.sprintf "uc=%h" r.Figure4.unconstrained_cost
    :: List.map
         (fun p ->
           Printf.sprintf "k%d:%h:%h" p.Figure4.k p.Figure4.kaware_cost
             p.Figure4.merging_cost)
         r.Figure4.points)

(* One (readahead, cell_jobs, Some (median_s, digest)) per arm; the
   digest is an MD5 over the deterministic output fields.  An arm with
   more cell jobs than cores would measure scheduler thrash, not parallel
   speedup: it is recorded as skipped ([None]) instead. *)
let sweep (config : Setup.config) =
  let cores = Parallel.ncpu () in
  List.concat_map
    (fun readahead ->
      let session, load_s =
        Timer.time (fun () -> Session.create { config with Setup.readahead })
      in
      Printf.printf "(session readahead=%d loaded in %.1fs)\n%!" readahead load_s;
      List.map
        (fun cell_jobs ->
          if cell_jobs > cores then begin
            Printf.printf "(skipping cell_jobs=%d arm: %d core%s available)\n%!"
              cell_jobs cores
              (if cores = 1 then "" else "s");
            (readahead, cell_jobs, None)
          end
          else
            let digest, median_s =
              Timer.time_median ~repeats:runs (fun () ->
                  let f3 = Figure3.run_cells ~cell_jobs session in
                  let f4 = Figure4.run_cells ~ks ~repeats ~cell_jobs session in
                  digest_of_list [ figure3_digest f3; figure4_cost_digest f4 ])
            in
            (readahead, cell_jobs, Some (median_s, digest)))
        cell_jobs_arms)
    [ Buffer_pool.default_readahead; 0 ]

(* Bulk load vs row-at-a-time load of the same batch into a table with two
   prebuilt indexes; the loaded states must answer queries identically. *)
let bulk () =
  (* Median of the load calls alone; the last run's database is probed. *)
  let time_mode bulk =
    let times = Array.make runs 0.0 and last = ref None in
    for i = 0 to runs - 1 do
      let db, load_s =
        load_table ~indexes:[ [ "a" ]; [ "a"; "b" ] ] ~bulk Setup.schema ~rows:bulk_rows
          ~value_range:5_000 ~seed:42
      in
      times.(i) <- load_s;
      last := Some db
    done;
    (Cddpd_util.Stats.percentile times 50.0, Option.get !last)
  in
  let bulk_s, db_bulk = time_mode true in
  let row_s, db_row = time_mode false in
  let probe db sql = List.sort compare (Database.execute_sql db sql).Database.rows in
  let equal =
    List.for_all
      (fun sql -> probe db_bulk sql = probe db_row sql)
      [
        "SELECT a, b FROM t WHERE a = 7";
        "SELECT a FROM t WHERE a BETWEEN 100 AND 120";
        "SELECT a, COUNT(*) FROM t GROUP BY a";
      ]
    && Database.row_count db_bulk "t" = Database.row_count db_row "t"
  in
  Printf.printf
    "bulk load %d rows, 2 indexes: bulk %.2fs vs row-at-a-time %.2fs (%.1fx), outputs %s\n%!"
    bulk_rows bulk_s row_s (row_s /. bulk_s)
    (if equal then "equal" else "DIFFER");
  if not equal then failwith "experiments: bulk load state differs from row-at-a-time load";
  Obj
    [
      ("rows", Int bulk_rows);
      ("indexes", Int 2);
      ("runs", Int runs);
      ("bulk_median_s", Float6 bulk_s);
      ("row_median_s", Float6 row_s);
      ("speedup", Float (row_s /. bulk_s));
      ("output_equal", Bool equal);
    ]

let run (config : Setup.config) =
  quiet @@ fun () ->
  let config = reduced config in
  let arms = sweep config in
  print_table
    [
      ("readahead", T.Right); ("cell jobs", T.Right); ("sweep median s", T.Right);
      ("digest", T.Left);
    ]
    (List.map
       (fun (readahead, cell_jobs, arm) ->
         [ string_of_int readahead; string_of_int cell_jobs ]
         @
         match arm with
         | None -> [ "skipped"; "(more jobs than cores)" ]
         | Some (median_s, digest) -> [ Printf.sprintf "%.2f" median_s; String.sub digest 0 12 ])
       arms);
  let ran =
    List.filter_map
      (fun (readahead, cell_jobs, arm) ->
        Option.map (fun (median_s, digest) -> (readahead, cell_jobs, median_s, digest)) arm)
      arms
  in
  (match ran with
  | (_, _, _, first) :: rest ->
      List.iter
        (fun (readahead, cell_jobs, _, digest) ->
          if not (String.equal digest first) then
            failwith
              (Printf.sprintf "experiments: outputs differ at readahead=%d cell_jobs=%d"
                 readahead cell_jobs))
        rest;
      Printf.printf "\nall %d measured arms produced identical outputs\n%!" (List.length ran)
  | [] -> ());
  let speedup =
    let find jobs =
      List.find_map
        (fun (readahead, cell_jobs, median_s, _) ->
          if cell_jobs = jobs && readahead = Buffer_pool.default_readahead then Some median_s
          else None)
        ran
    in
    match (find 1, find 2) with
    | Some seq, Some par -> seq /. par
    | _ -> nan (* serialised as null: no honest multi-core measurement *)
  in
  let bulk = bulk () in
  Obj
    [
      ("schema", Str "cddpd-bench-experiments/1");
      ("rows", Int config.Setup.rows);
      ("value_range", Int config.Setup.value_range);
      ("scale", Float config.Setup.scale);
      ("seed", Int config.Setup.seed);
      ("runs", Int runs);
      ("cores", Int (Parallel.ncpu ()));
      ("figure4_ks", List (List.map (fun k -> Int k) ks));
      ("figure4_repeats", Int repeats);
      ( "sweep",
        List
          (List.map
             (fun (readahead, cell_jobs, arm) ->
               let median_s, digest, status =
                 match arm with
                 | Some (median_s, digest) -> (median_s, digest, "ok")
                 | None -> (nan, "", "skipped_more_jobs_than_cores")
               in
               Obj
                 [
                   ("readahead", Int readahead);
                   ("cell_jobs", Int cell_jobs);
                   ("median_s", Float6 median_s);
                   ("digest", Str digest);
                   ("status", Str status);
                 ])
             arms) );
      ("digests_identical", Bool true);
      ("parallel_speedup", Float speedup);
      ("bulk_load", bulk);
    ]
