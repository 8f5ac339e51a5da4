(* Tests of the benchmark's own logic: percentiles, statistics-refresh
   detection, seeded shuffling, and a tiny-size run of every workload
   that must emit exactly the metrics BENCHMARK.json declares. *)

open Perfbench
module Database = Cddpd_engine.Database
module Setup = Cddpd_experiments.Setup
module Ast = Cddpd_sql.Ast

let test_rank () =
  Alcotest.(check int) "p99 of 1000" 990 (Pct.rank ~n:1000 99.0);
  Alcotest.(check int) "p50 of 1" 1 (Pct.rank ~n:1 50.0);
  Alcotest.(check int) "p100 of 7" 7 (Pct.rank ~n:7 100.0);
  Alcotest.(check int) "p0 clamps to 1" 1 (Pct.rank ~n:7 0.0);
  Alcotest.(check int) "above p99 of 15000" 150 (Pct.above ~n:15_000 99.0)

let test_percentile () =
  let sorted = Pct.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Pct.percentile sorted 50.0);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Pct.percentile sorted 99.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Pct.percentile [||] 50.0);
  Alcotest.(check (float 0.0)) "median" 2.0 (Pct.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "lower median of two" 1.0 (Pct.median [| 3.0; 1.0 |])

let test_highest_supported () =
  let check label expected n =
    Alcotest.(check (option (float 0.0))) label expected (Pct.highest_supported n)
  in
  check "1000 samples support p99" (Some 99.0) 1000;
  check "999 samples do not support p99" (Some 90.0) 999;
  check "10000 samples support p99.9" (Some 99.9) 10_000;
  check "20 samples support only the median" (Some 50.0) 20;
  check "19 samples support nothing" None 19;
  check "no samples" None 0;
  Alcotest.(check (option (float 0.0)))
    "min_above" (Some 99.0)
    (Pct.highest_supported ~min_above:150 15_000)

let test_position_minima () =
  let m = Pct.position_minima [ [| 1.0; 9.0 |]; [| 5.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  Alcotest.(check (array (float 0.0))) "element-wise" [| 1.0; 2.0 |] m;
  Alcotest.check_raises "unequal" (Invalid_argument "Pct.position_minima: unequal lengths")
    (fun () -> ignore (Pct.position_minima [ [| 1.0 |]; [||] ]))

let small_db () =
  Setup.make_database
    { Setup.test_config with Setup.rows = 500; value_range = 50; pool_capacity = 64 }

let test_refresh () =
  Alcotest.(check bool) "same generation" false (Refresh.is_refresh ~last_gen:3 ~gen:3);
  Alcotest.(check bool) "moved" true (Refresh.is_refresh ~last_gen:3 ~gen:4);
  let db = small_db () in
  let tracker = Refresh.create db Setup.table_name in
  ignore (Refresh.table_stats tracker);
  Alcotest.(check int) "analyzed stats are a lookup" 0 (Refresh.refreshes tracker);
  ignore (Database.execute_sql db "SELECT a FROM t WHERE a = 3");
  ignore (Refresh.table_stats tracker);
  Alcotest.(check int) "a read does not refresh" 0 (Refresh.refreshes tracker);
  ignore (Database.execute_sql db "UPDATE t SET b = 7 WHERE a = 3");
  ignore (Refresh.table_stats tracker);
  Alcotest.(check int) "the call after an UPDATE refreshes" 1 (Refresh.refreshes tracker);
  ignore (Refresh.table_stats tracker);
  Alcotest.(check int) "and the next one does not" 1 (Refresh.refreshes tracker);
  Alcotest.(check int) "lookups" 3 (Refresh.lookups tracker)

let test_shuffle () =
  let items = Array.init 23 Fun.id in
  let a = Shuffle.within_blocks ~seed:5 ~block:10 items in
  let b = Shuffle.within_blocks ~seed:5 ~block:10 items in
  Alcotest.(check (array int)) "deterministic" a b;
  List.iter
    (fun (lo, len) ->
      let block x = List.sort compare (Array.to_list (Array.sub x lo len)) in
      Alcotest.(check (list int)) "each block keeps its elements" (block items) (block a))
    [ (0, 10); (10, 10); (20, 3) ];
  Alcotest.(check bool) "another seed, another order" false
    (Shuffle.within_blocks ~seed:6 ~block:10 items = a);
  Alcotest.(check (array int)) "blocks of one" items
    (Shuffle.within_blocks ~seed:5 ~block:1 items);
  let fixed x = x mod 4 = 0 in
  let c = Shuffle.within_blocks ~seed:5 ~block:10 ~fixed items in
  Array.iteri
    (fun i x -> if fixed x then Alcotest.(check int) "fixed stays" x c.(i))
    items;
  Array.iteri
    (fun i x ->
      (* Nothing crosses a fixed element: x stays between the same two. *)
      let stretch j = (j / 10, List.length (List.filter fixed (List.init (j + 1) Fun.id))) in
      Alcotest.(check (pair int int)) "stays in its stretch" (stretch x) (stretch i))
    c

(* BENCHMARK.json keeps one metric per line: collect (name, unit) of the
   lines in the end_to_end and per_layer sections. *)
let declared_metrics () =
  let lines =
    In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
    |> String.split_on_char '\n'
  in
  let field key line =
    let marker = Printf.sprintf "\"%s\": \"" key in
    let ml = String.length marker in
    let rec find i =
      if i + ml > String.length line then None
      else if String.equal (String.sub line i ml) marker then
        let start = i + ml in
        Some (String.sub line start (String.index_from line start '"' - start))
      else find (i + 1)
    in
    find 0
  in
  let section = ref "" and e2e = ref [] and layers = ref [] in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.equal (String.sub s 0 (String.length prefix)) prefix
  in
  List.iter
    (fun line ->
      let trimmed = String.trim line in
      List.iter
        (fun key -> if starts_with (Printf.sprintf "\"%s\"" key) trimmed then section := key)
        [ "end_to_end"; "per_layer"; "workloads" ];
      match (field "name" line, field "unit" line) with
      | Some name, Some unit when String.equal !section "end_to_end" ->
          e2e := (name, unit) :: !e2e
      | Some name, Some unit when String.equal !section "per_layer" ->
          layers := (name, unit) :: !layers
      | _ -> ())
    lines;
  (List.rev !e2e, List.rev !layers)

let test_catalogue_matches_benchmark_json () =
  let e2e, layers = declared_metrics () in
  Alcotest.(check (list (pair string string))) "end_to_end" Catalogue.end_to_end e2e;
  Alcotest.(check (list (pair string string))) "per_layer" Catalogue.per_layer layers

let smoke workload ~trace () =
  match Bench.run ~workload ~seed:3 ~seconds:0.0 ~trace ~jobs:1 ~size:Bench.Tiny with
  | Error message -> Alcotest.fail message
  | Ok outcome ->
      List.iter
        (fun (name, ok) -> Alcotest.(check bool) name true ok)
        outcome.Outcome.checks;
      Alcotest.(check int) "nothing failed" 0 outcome.Outcome.failed;
      let catalogue = if trace then Catalogue.per_layer else Catalogue.end_to_end in
      Alcotest.(check (list string))
        "every metric, in order" (List.map fst catalogue)
        (List.map fst outcome.Outcome.metrics);
      List.iter
        (fun (name, value) ->
          Alcotest.(check bool) (name ^ " is finite") true (Float.is_finite value))
        outcome.Outcome.metrics;
      if not trace then
        List.iter
          (fun (name, value) ->
            Alcotest.(check bool) (name ^ " is positive") true (value > 0.0))
          outcome.Outcome.metrics;
      let json = Json.to_string (Outcome.result_json outcome ~units:catalogue) in
      List.iter
        (fun (name, unit) ->
          let expected = Printf.sprintf "\"%s\":{\"value\":" name in
          let unit_field = Printf.sprintf "\"unit\":\"%s\"" unit in
          let contains s sub =
            let n = String.length sub in
            let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) (name ^ " emitted") true (contains json expected);
          Alcotest.(check bool) (unit ^ " emitted") true (contains json unit_field))
        catalogue

let test_refuses_extra_domains () =
  match
    Bench.run ~workload:"drift-heavy" ~seed:1 ~seconds:0.0 ~trace:false
      ~jobs:(Env.cores () + 1) ~size:Bench.Tiny
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ran with more domains than cores"

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "rank" `Quick test_rank;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "highest supported" `Quick test_highest_supported;
          Alcotest.test_case "position minima" `Quick test_position_minima;
        ] );
      ("refresh", [ Alcotest.test_case "detection" `Quick test_refresh ]);
      ("shuffle", [ Alcotest.test_case "within blocks" `Quick test_shuffle ]);
      ( "run",
        [
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick
            test_catalogue_matches_benchmark_json;
          Alcotest.test_case "refuses extra domains" `Quick test_refuses_extra_domains;
        ]
        @ List.concat_map
            (fun w ->
              [
                Alcotest.test_case (w ^ " untraced") `Quick (smoke w ~trace:false);
                Alcotest.test_case (w ^ " traced") `Quick (smoke w ~trace:true);
              ])
            Bench.workloads );
    ]
