(* Engine tests: histograms, semantic checking, planner decisions, executor
   correctness against a naive reference implementation, and physical
   design migration. *)

module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Design = Cddpd_catalog.Design
module Ast = Cddpd_sql.Ast
module Histogram = Cddpd_engine.Histogram
module Table_stats = Cddpd_engine.Table_stats
module Check = Cddpd_engine.Check
module Plan = Cddpd_engine.Plan
module Database = Cddpd_engine.Database
module Rng = Cddpd_util.Rng

(* -- Histogram ----------------------------------------------------------------- *)

let test_histogram_empty () =
  let h = Histogram.build [||] in
  Alcotest.(check int) "no values" 0 (Histogram.n_values h);
  Alcotest.(check (float 0.0)) "eq selectivity" 0.0 (Histogram.selectivity_eq h 5);
  Alcotest.(check bool) "no min" true (Histogram.min_value h = None)

let test_histogram_uniform_eq () =
  (* 1000 values over [0,100): each value ~1% of rows. *)
  let values = Array.init 1000 (fun i -> i mod 100) in
  let h = Histogram.build values in
  let sel = Histogram.selectivity_eq h 42 in
  Alcotest.(check bool) "eq selectivity near 1%" true (sel > 0.005 && sel < 0.02);
  Alcotest.(check int) "distinct" 100 (Histogram.n_distinct h)

let test_histogram_eq_out_of_range () =
  let h = Histogram.build (Array.init 100 (fun i -> i)) in
  let sel = Histogram.selectivity_eq h 10_000 in
  Alcotest.(check bool) "tiny but nonzero" true (sel > 0.0 && sel < 0.01)

let test_histogram_range () =
  let values = Array.init 1000 (fun i -> i) in
  let h = Histogram.build values in
  let sel = Histogram.selectivity_range h ~lo:(Some 0) ~hi:(Some 499) in
  Alcotest.(check bool) "half the rows" true (sel > 0.45 && sel < 0.55);
  let all = Histogram.selectivity_range h ~lo:None ~hi:None in
  Alcotest.(check bool) "open range = all" true (all > 0.99)

let test_histogram_minmax () =
  let h = Histogram.build [| 5; 1; 9; 3 |] in
  Alcotest.(check (option int)) "min" (Some 1) (Histogram.min_value h);
  Alcotest.(check (option int)) "max" (Some 9) (Histogram.max_value h)

let test_histogram_skew () =
  (* 90% of rows are value 7. *)
  let values = Array.init 1000 (fun i -> if i < 900 then 7 else i) in
  let h = Histogram.build values in
  let sel7 = Histogram.selectivity_eq h 7 in
  Alcotest.(check bool) "skewed value dominates" true (sel7 > 0.5)

let histogram_range_bounds_prop =
  QCheck.Test.make ~name:"range selectivity in [0,1] and monotone" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 200) (int_bound 1000)) (int_bound 1000))
    (fun (values, split) ->
      let h = Histogram.build (Array.of_list values) in
      let narrow = Histogram.selectivity_range h ~lo:(Some 0) ~hi:(Some split) in
      let wide = Histogram.selectivity_range h ~lo:(Some 0) ~hi:(Some (split + 100)) in
      narrow >= 0.0 && narrow <= 1.0 && wide >= narrow)

(* [of_sorted] over an ascending array padded with junk past [n] must give
   the histogram [build] gives for the same values. *)
let of_sorted_matches_build ~buckets ~pad values =
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  let backing = Array.append sorted (Array.make pad (-7)) in
  String.equal
    (Histogram.fingerprint (Histogram.build ~buckets values))
    (Histogram.fingerprint (Histogram.of_sorted ~buckets ~n:(Array.length values) backing))

let test_histogram_of_sorted_edges () =
  let check name ~buckets ~pad values =
    Alcotest.(check bool) name true (of_sorted_matches_build ~buckets ~pad values)
  in
  check "n = 0" ~buckets:64 ~pad:0 [||];
  check "n = 0, spare capacity" ~buckets:64 ~pad:5 [||];
  check "all equal" ~buckets:8 ~pad:0 (Array.make 100 42);
  check "fewer rows than buckets" ~buckets:64 ~pad:0 [| 9; 3; 3; 1 |];
  check "backing array longer than n" ~buckets:4 ~pad:10 (Array.init 50 (fun i -> i mod 7));
  Alcotest.check_raises "n past the array"
    (Invalid_argument "Histogram.of_sorted: n out of range") (fun () ->
      ignore (Histogram.of_sorted ~n:3 [| 1; 2 |]))

let histogram_of_sorted_prop =
  QCheck.Test.make ~name:"of_sorted = build" ~count:300
    QCheck.(
      triple (int_range 1 80) (int_bound 6)
        (make
           ~print:Print.(array int)
           Gen.(
             int_range 1 500 >>= fun range ->
             array_size (int_bound 300) (int_bound range))))
    (fun (buckets, pad, values) -> of_sorted_matches_build ~buckets ~pad values)

(* -- schema / check -------------------------------------------------------------- *)

let schema =
  Schema.table "t"
    [ ("a", Schema.Int_type); ("b", Schema.Int_type); ("name", Schema.Text_type) ]

let test_schema_lookups () =
  Alcotest.(check (option int)) "index of b" (Some 1) (Schema.column_index schema "b");
  Alcotest.(check (option int)) "unknown" None (Schema.column_index schema "zz");
  Alcotest.(check int) "arity" 3 (Schema.arity schema);
  Alcotest.(check bool) "mem" true (Schema.mem_column schema "name")

let test_schema_validate_tuple () =
  Alcotest.(check bool) "valid" true
    (Schema.validate_tuple schema [| Tuple.Int 1; Tuple.Int 2; Tuple.Text "x" |] = Ok ());
  Alcotest.(check bool) "wrong arity" true
    (Result.is_error (Schema.validate_tuple schema [| Tuple.Int 1 |]));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error
       (Schema.validate_tuple schema [| Tuple.Text "x"; Tuple.Int 2; Tuple.Text "y" |]))

let test_check_statement () =
  let ok sql = Check.statement [ schema ] (Cddpd_sql.Parser.parse_exn sql) in
  Alcotest.(check bool) "valid select" true (ok "SELECT a FROM t WHERE b = 1" = Ok ());
  Alcotest.(check bool) "unknown table" true (Result.is_error (ok "SELECT a FROM nope"));
  Alcotest.(check bool) "unknown column" true
    (Result.is_error (ok "SELECT zz FROM t"));
  Alcotest.(check bool) "unknown predicate column" true
    (Result.is_error (ok "SELECT a FROM t WHERE zz = 1"));
  Alcotest.(check bool) "type mismatch" true
    (Result.is_error (ok "SELECT a FROM t WHERE a = 'text'"));
  Alcotest.(check bool) "text ok" true (ok "SELECT a FROM t WHERE name = 'x'" = Ok ());
  Alcotest.(check bool) "insert ok" true (ok "INSERT INTO t VALUES (1, 2, 'x')" = Ok ());
  Alcotest.(check bool) "insert arity" true
    (Result.is_error (ok "INSERT INTO t VALUES (1, 2)"));
  Alcotest.(check bool) "insert type" true
    (Result.is_error (ok "INSERT INTO t VALUES (1, 'x', 'y')"))

(* -- database fixtures ------------------------------------------------------------ *)

let paper_schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
    ]

let make_db ?(rows = 3000) ?(value_range = 50) () =
  let db = Database.create ~pool_capacity:1024 [ paper_schema ] in
  let rng = Rng.create 7 in
  let data =
    Array.init rows (fun _ ->
        Array.init 4 (fun _ -> Tuple.Int (Rng.int rng value_range)))
  in
  Database.load db ~table:"t" data;
  (db, data)

let index columns = Index_def.make ~table:"t" ~columns

let rows_sorted result = List.sort compare result.Database.rows

(* Reference implementation: filter + project in plain OCaml. *)
let reference_select data (select : Ast.select) =
  let pos c = Schema.column_index_exn paper_schema c in
  let matches tuple =
    List.for_all
      (fun pred ->
        match pred with
        | Ast.Cmp { column; op; value } -> (
            let v = tuple.(pos column) in
            let c = Tuple.compare_value v value in
            match op with
            | Ast.Eq -> c = 0
            | Ast.Lt -> c < 0
            | Ast.Le -> c <= 0
            | Ast.Gt -> c > 0
            | Ast.Ge -> c >= 0)
        | Ast.Between { column; low; high } ->
            Tuple.compare_value tuple.(pos column) low >= 0
            && Tuple.compare_value tuple.(pos column) high <= 0)
      select.Ast.where
  in
  let project tuple =
    match select.Ast.projection with
    | Ast.Star -> tuple
    | Ast.Columns cs -> Array.of_list (List.map (fun c -> tuple.(pos c)) cs)
  in
  Array.to_list data |> List.filter matches |> List.map project |> List.sort compare

let check_query db data sql =
  let statement = Cddpd_sql.Parser.parse_exn sql in
  let select =
    match statement with
    | Ast.Select s -> s
    | Ast.Select_agg _ | Ast.Insert _ | Ast.Delete _ | Ast.Update _ ->
        Alcotest.fail "not select"
  in
  let result = Database.execute db statement in
  let expected = reference_select data select in
  Alcotest.(check int)
    (Printf.sprintf "row count for %s" sql)
    (List.length expected) (List.length result.Database.rows);
  if rows_sorted result <> expected then Alcotest.failf "rows differ for %s" sql

(* -- planner decisions -------------------------------------------------------------- *)

let plan_of db sql =
  let result = Database.execute_sql db sql in
  match result.Database.plan with
  | Some plan -> plan.Plan.path
  | None -> Alcotest.fail "expected a plan"

let test_plan_no_index_scans () =
  let db, _ = make_db () in
  match plan_of db "SELECT a FROM t WHERE a = 5" with
  | Plan.Full_scan -> ()
  | Plan.Index_seek _ | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "no index available"

let test_plan_seek_with_index () =
  let db, _ = make_db () in
  Database.build_index db (index [ "a" ]);
  match plan_of db "SELECT a FROM t WHERE a = 5" with
  | Plan.Index_seek { covering; _ } ->
      Alcotest.(check bool) "covering" true covering
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected a covering seek"

let test_plan_noncovering_seek () =
  (* Needs selective data: with few matching rows the rid fetches are
     cheaper than a scan. *)
  let db, _ = make_db ~value_range:5000 () in
  Database.build_index db (index [ "a" ]);
  match plan_of db "SELECT b FROM t WHERE a = 5" with
  | Plan.Index_seek { covering; _ } ->
      Alcotest.(check bool) "not covering" false covering
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected a seek"

let test_plan_index_only_scan () =
  (* I(a,b) answers b-queries via a leaf scan — the key mechanism behind the
     paper's design choices. *)
  let db, _ = make_db () in
  Database.build_index db (index [ "a"; "b" ]);
  match plan_of db "SELECT b FROM t WHERE b = 5" with
  | Plan.Index_only_scan { index } ->
      Alcotest.(check string) "uses I(a,b)" "I(a,b)" (Index_def.name index)
  | Plan.Full_scan | Plan.Index_seek _ | Plan.View_probe _ ->
      Alcotest.fail "expected an index-only scan"

let test_plan_star_never_covered () =
  let db, _ = make_db ~value_range:5000 () in
  Database.build_index db (index [ "a"; "b" ]);
  match plan_of db "SELECT * FROM t WHERE a = 5" with
  | Plan.Index_seek { covering; _ } -> Alcotest.(check bool) "not covering" false covering
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected a seek"

let test_plan_composite_prefix_and_range () =
  let db, _ = make_db () in
  Database.build_index db (index [ "a"; "b" ]);
  match plan_of db "SELECT a, b FROM t WHERE a = 5 AND b BETWEEN 3 AND 9" with
  | Plan.Index_seek { eq_prefix = [ 5 ]; range = Some (Some _, Some _); covering = true; _ }
    -> ()
  | _ -> Alcotest.fail "expected covering seek with prefix and range"

let test_plan_prefers_seek_over_scan () =
  let db, _ = make_db () in
  Database.build_index db (index [ "b" ]);
  Database.build_index db (index [ "a"; "b" ]);
  (* b-queries: the dedicated I(b) seek should beat the I(a,b) leaf scan. *)
  match plan_of db "SELECT b FROM t WHERE b = 5" with
  | Plan.Index_seek { index; _ } ->
      Alcotest.(check string) "uses I(b)" "I(b)" (Index_def.name index)
  | Plan.Full_scan | Plan.Index_only_scan _ | Plan.View_probe _ ->
      Alcotest.fail "expected seek on I(b)"

(* -- executor correctness -------------------------------------------------------------- *)

let queries_to_check =
  [
    "SELECT a FROM t WHERE a = 5";
    "SELECT b FROM t WHERE b = 7";
    "SELECT a, b FROM t WHERE a = 3";
    "SELECT * FROM t WHERE c = 11";
    "SELECT d FROM t WHERE d > 45";
    "SELECT a FROM t WHERE a = 9 AND b = 9";
    "SELECT a, b FROM t WHERE a = 2 AND b BETWEEN 10 AND 30";
    "SELECT c FROM t WHERE c BETWEEN 0 AND 5";
    "SELECT a FROM t WHERE a = 12345";
    "SELECT a FROM t";
  ]

let run_queries_under_design design_columns () =
  let db, data = make_db () in
  List.iter (fun cols -> Database.build_index db (index cols)) design_columns;
  List.iter (check_query db data) queries_to_check

let test_exec_no_indexes () = run_queries_under_design [] ()

let test_exec_single_indexes () = run_queries_under_design [ [ "a" ]; [ "b" ] ] ()

let test_exec_composite_indexes () =
  run_queries_under_design [ [ "a"; "b" ]; [ "c"; "d" ] ] ()

let test_exec_all_indexes () =
  run_queries_under_design [ [ "a" ]; [ "b" ]; [ "c" ]; [ "d" ]; [ "a"; "b" ]; [ "c"; "d" ] ] ()

(* Property: every query answered identically under random designs. *)
let exec_design_independent_prop =
  QCheck.Test.make ~name:"results independent of physical design" ~count:30
    QCheck.(
      pair
        (QCheck.make
           QCheck.Gen.(
             map3
               (fun col v proj -> (col, v, proj))
               (oneofl [ "a"; "b"; "c"; "d" ])
               (int_bound 60)
               (oneofl [ `Same; `Other; `Star ])))
        (QCheck.make
           QCheck.Gen.(
             oneofl
               [ []; [ [ "a" ] ]; [ [ "a"; "b" ] ]; [ [ "c"; "d" ]; [ "b" ] ];
                 [ [ "a" ]; [ "b" ]; [ "c" ]; [ "d" ] ] ])))
    (fun ((col, v, proj), design) ->
      let db, data = make_db ~rows:800 () in
      let projection =
        match proj with
        | `Same -> col
        | `Other -> if col = "a" then "b" else "a"
        | `Star -> "*"
      in
      let sql = Printf.sprintf "SELECT %s FROM t WHERE %s = %d" projection col v in
      let before = Database.execute_sql db sql in
      List.iter (fun cols -> Database.build_index db (index cols)) design;
      let after = Database.execute_sql db sql in
      ignore data;
      rows_sorted before = rows_sorted after)

let test_exec_insert_updates_indexes () =
  let db, _ = make_db ~rows:500 () in
  Database.build_index db (index [ "a" ]);
  let before = Database.execute_sql db "SELECT a FROM t WHERE a = 49" in
  ignore (Database.execute_sql db "INSERT INTO t VALUES (49, 1, 2, 3)");
  let after = Database.execute_sql db "SELECT a FROM t WHERE a = 49" in
  Alcotest.(check int) "one more row"
    (List.length before.Database.rows + 1)
    (List.length after.Database.rows);
  (* Still answered by the index. *)
  (match after.Database.plan with
  | Some { Plan.path = Plan.Index_seek _; _ } -> ()
  | _ -> Alcotest.fail "expected index seek");
  Alcotest.(check int) "row_count bumped" 501 (Database.row_count db "t")

let test_exec_io_measured () =
  let db, _ = make_db () in
  let scan = Database.execute_sql db "SELECT a FROM t WHERE a = 5" in
  Database.build_index db (index [ "a" ]);
  let seek = Database.execute_sql db "SELECT a FROM t WHERE a = 5" in
  Alcotest.(check bool) "seek needs far less I/O" true
    (seek.Database.logical_io * 5 < scan.Database.logical_io);
  Alcotest.(check bool) "scan touches all pages" true (scan.Database.logical_io > 10)

let test_exec_semantic_error_raises () =
  let db, _ = make_db () in
  Alcotest.(check bool) "bad column rejected" true
    (match Database.execute_sql db "SELECT zz FROM t" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* -- DML: DELETE / UPDATE -------------------------------------------------------------- *)

let count_rows db sql = List.length (Database.execute_sql db sql).Database.rows

let test_delete_basic () =
  let db, data = make_db ~rows:1000 () in
  let target = 7 in
  let expected =
    Array.to_list data
    |> List.filter (fun r -> r.(0) = Tuple.Int target)
    |> List.length
  in
  let result = Database.execute_sql db (Printf.sprintf "DELETE FROM t WHERE a = %d" target) in
  Alcotest.(check int) "affected count" expected result.Database.affected;
  Alcotest.(check int) "rows gone" 0
    (count_rows db (Printf.sprintf "SELECT a FROM t WHERE a = %d" target));
  Alcotest.(check int) "row_count updated" (1000 - expected) (Database.row_count db "t")

let test_delete_uses_index_and_maintains_it () =
  let db, _ = make_db ~rows:2000 ~value_range:500 () in
  Database.build_index db (index [ "a" ]);
  Database.build_index db (index [ "a"; "b" ]);
  let before = count_rows db "SELECT a FROM t WHERE a = 42" in
  Alcotest.(check bool) "something to delete" true (before > 0);
  let result = Database.execute_sql db "DELETE FROM t WHERE a = 42" in
  (* The find phase goes through an index (selective predicate). *)
  (match result.Database.plan with
  | Some { Plan.path = Plan.Index_seek _; _ } -> ()
  | Some { Plan.path = _; _ } | None -> Alcotest.fail "expected an index-driven delete");
  (* All access paths agree the rows are gone (indexes were maintained). *)
  Alcotest.(check int) "seek finds none" 0 (count_rows db "SELECT a FROM t WHERE a = 42");
  Database.migrate_to db Cddpd_catalog.Design.empty;
  Alcotest.(check int) "scan finds none" 0 (count_rows db "SELECT a FROM t WHERE a = 42")

let test_delete_everything () =
  let db, _ = make_db ~rows:300 () in
  let result = Database.execute_sql db "DELETE FROM t" in
  Alcotest.(check int) "all rows" 300 result.Database.affected;
  Alcotest.(check int) "empty table" 0 (Database.row_count db "t")

let test_update_basic () =
  let db, data = make_db ~rows:1000 () in
  let expected =
    Array.to_list data |> List.filter (fun r -> r.(1) = Tuple.Int 9) |> List.length
  in
  let result = Database.execute_sql db "UPDATE t SET a = 777777 WHERE b = 9" in
  Alcotest.(check int) "affected" expected result.Database.affected;
  Alcotest.(check int) "rows rewritten" expected
    (count_rows db "SELECT a FROM t WHERE a = 777777");
  Alcotest.(check int) "row count preserved" 1000 (Database.row_count db "t")

let test_update_maintains_indexes () =
  let db, _ = make_db ~rows:2000 ~value_range:500 () in
  Database.build_index db (index [ "a" ]);
  let moved = count_rows db "SELECT a FROM t WHERE a = 13" in
  ignore (Database.execute_sql db "UPDATE t SET a = 499999 WHERE a = 13");
  (* The index must reflect both the removal and the new key. *)
  Alcotest.(check int) "old key gone" 0 (count_rows db "SELECT a FROM t WHERE a = 13");
  Alcotest.(check int) "new key findable" moved
    (count_rows db "SELECT a FROM t WHERE a = 499999");
  let result = Database.execute_sql db "SELECT a FROM t WHERE a = 499999" in
  match result.Database.plan with
  | Some { Plan.path = Plan.Index_seek _; _ } -> ()
  | Some { Plan.path = _; _ } | None -> Alcotest.fail "expected an index seek"

let test_update_then_reference_agrees () =
  (* Full workload equivalence after a batch of mixed DML. *)
  let db, _ = make_db ~rows:1500 () in
  Database.build_index db (index [ "c"; "d" ]);
  ignore (Database.execute_sql db "UPDATE t SET d = 1 WHERE c = 5");
  ignore (Database.execute_sql db "DELETE FROM t WHERE c = 6");
  ignore (Database.execute_sql db "INSERT INTO t VALUES (1, 2, 6, 4)");
  (* Compare indexed vs scan answers for the touched region. *)
  let with_index = count_rows db "SELECT c, d FROM t WHERE c BETWEEN 4 AND 7" in
  Database.migrate_to db Cddpd_catalog.Design.empty;
  let without_index = count_rows db "SELECT c, d FROM t WHERE c BETWEEN 4 AND 7" in
  Alcotest.(check int) "index and heap agree after DML" without_index with_index

(* -- materialized views ----------------------------------------------------------------- *)

module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure

let view group_by = View_def.make ~table:"t" ~group_by

(* Reference aggregation over the raw data. *)
let reference_groups data ~group_pos ~agg =
  let groups = Hashtbl.create 64 in
  Array.iter
    (fun row ->
      let g = Tuple.int_exn row.(group_pos) in
      let delta = match agg with `Count -> 1 | `Sum pos -> Tuple.int_exn row.(pos) in
      Hashtbl.replace groups g (delta + Option.value ~default:0 (Hashtbl.find_opt groups g)))
    data;
  Hashtbl.fold (fun g v acc -> (g, v) :: acc) groups [] |> List.sort compare

let rows_as_pairs result =
  List.map
    (fun row ->
      match row with
      | [| Tuple.Int g; Tuple.Int v |] -> (g, v)
      | _ -> Alcotest.fail "unexpected aggregate row shape")
    result.Database.rows
  |> List.sort compare

let test_view_count_matches_scan () =
  let db, data = make_db ~rows:2000 ~value_range:50 () in
  let sql = "SELECT a, COUNT(*) FROM t GROUP BY a" in
  let scan_result = Database.execute_sql db sql in
  (match scan_result.Database.plan with
  | Some { Plan.path = Plan.Full_scan; _ } -> ()
  | _ -> Alcotest.fail "expected scan aggregation without a view");
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  let view_result = Database.execute_sql db sql in
  (match view_result.Database.plan with
  | Some { Plan.path = Plan.View_probe { group_value = None; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected a view scan");
  Alcotest.(check bool) "same answers" true
    (rows_as_pairs scan_result = rows_as_pairs view_result);
  Alcotest.(check bool) "matches reference" true
    (rows_as_pairs view_result = reference_groups data ~group_pos:0 ~agg:`Count);
  Alcotest.(check bool) "view is cheaper" true
    (view_result.Database.logical_io < scan_result.Database.logical_io)

let test_view_sum_and_probe () =
  let db, data = make_db ~rows:2000 ~value_range:50 () in
  Database.migrate_to db (Design.empty |> Design.add_view (view "c"));
  let result = Database.execute_sql db "SELECT c, SUM(b) FROM t WHERE c = 7 GROUP BY c" in
  (match result.Database.plan with
  | Some { Plan.path = Plan.View_probe { group_value = Some 7; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected a view probe");
  let expected =
    reference_groups data ~group_pos:2 ~agg:(`Sum 1)
    |> List.filter (fun (g, _) -> g = 7)
  in
  Alcotest.(check bool) "probe matches reference" true (rows_as_pairs result = expected)

let test_view_not_used_for_filtered_aggregates () =
  (* A predicate on a non-group column disqualifies the view. *)
  let db, _ = make_db ~rows:1000 () in
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  let result = Database.execute_sql db "SELECT a, COUNT(*) FROM t WHERE b = 3 GROUP BY a" in
  match result.Database.plan with
  | Some { Plan.path = Plan.Full_scan; _ } -> ()
  | _ -> Alcotest.fail "expected scan aggregation"

let test_view_maintained_under_dml () =
  let db, _ = make_db ~rows:1500 ~value_range:40 () in
  Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
  ignore (Database.execute_sql db "INSERT INTO t VALUES (7, 1, 1, 1)");
  ignore (Database.execute_sql db "INSERT INTO t VALUES (7, 1, 1, 1)");
  ignore (Database.execute_sql db "DELETE FROM t WHERE a = 8");
  ignore (Database.execute_sql db "UPDATE t SET a = 9 WHERE a = 10");
  let sql = "SELECT a, COUNT(*) FROM t GROUP BY a" in
  let via_view = Database.execute_sql db sql in
  (match via_view.Database.plan with
  | Some { Plan.path = Plan.View_probe _; _ } -> ()
  | _ -> Alcotest.fail "expected the view");
  Database.migrate_to db Design.empty;
  let via_scan = Database.execute_sql db sql in
  Alcotest.(check bool) "view stayed consistent through DML" true
    (rows_as_pairs via_view = rows_as_pairs via_scan)

let test_view_on_text_column_rejected () =
  let db =
    Database.create
      [ Schema.table "s" [ ("x", Schema.Int_type); ("n", Schema.Text_type) ] ]
  in
  Database.load db ~table:"s" [| [| Tuple.Int 1; Tuple.Text "a" |] |];
  Alcotest.(check bool) "text group rejected" true
    (match
       Database.migrate_to db
         (Design.empty |> Design.add_view (View_def.make ~table:"s" ~group_by:"n"))
     with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_view_in_design_name () =
  let d = Design.empty |> Design.add (index [ "a" ]) |> Design.add_view (view "c") in
  Alcotest.(check string) "design name" "{I(a), MV(c)}" (Design.name d);
  Alcotest.(check int) "cardinality" 2 (Design.cardinality d);
  Alcotest.(check int) "one index" 1 (List.length (Design.indexes d));
  Alcotest.(check int) "one view" 1 (List.length (Design.views d))

(* Model-based property: a view maintained through random DML always equals
   fresh aggregation of the surviving rows. *)
let view_maintenance_prop =
  QCheck.Test.make ~name:"view stays consistent under random insert/delete" ~count:40
    QCheck.(list (pair (int_bound 8) bool))
    (fun ops ->
      let db = Database.create ~pool_capacity:512 [ paper_schema ] in
      Database.load db ~table:"t"
        (Array.init 2048 (fun i ->
             [| Tuple.Int (i mod 8); Tuple.Int i; Tuple.Int 0; Tuple.Int 0 |]));
      Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
      List.iter
        (fun (g, is_insert) ->
          if is_insert then
            ignore (Database.execute_sql db (Printf.sprintf "INSERT INTO t VALUES (%d, 1, 2, 3)" g))
          else
            ignore (Database.execute_sql db (Printf.sprintf "DELETE FROM t WHERE a = %d" g)))
        ops;
      let sql = "SELECT a, SUM(b) FROM t GROUP BY a" in
      let via_view = Database.execute_sql db sql in
      (match via_view.Database.plan with
      | Some { Plan.path = Plan.View_probe _; _ } -> ()
      | _ -> failwith "expected the view");
      Database.migrate_to db Design.empty;
      let via_scan = Database.execute_sql db sql in
      rows_as_pairs via_view = rows_as_pairs via_scan)

(* -- plan-choice memo --------------------------------------------------------------- *)

module Cost_key = Cddpd_engine.Cost_key
module Plan_cache = Cddpd_engine.Plan_cache

(* Drive the same statement through two identically-built databases — one
   passing [statement_key] (memo engaged), one never — and demand
   bit-identical plans, rows and I/O. *)
let memo_step memo fresh sql =
  let stmt = Cddpd_sql.Parser.parse_exn sql in
  let key = Cost_key.statement (Database.table_stats memo "t") stmt in
  (* keep the I/O comparison apples-to-apples: materialize any stale
     statistics outside the measured execution on both sides *)
  ignore (Database.table_stats fresh "t");
  let m = Database.execute ~statement_key:key memo stmt in
  let f = Database.execute fresh stmt in
  if m.Database.plan <> f.Database.plan then Alcotest.failf "plans differ for %s" sql;
  Alcotest.(check int)
    (Printf.sprintf "io for %s" sql)
    f.Database.logical_io m.Database.logical_io;
  if rows_sorted m <> rows_sorted f then Alcotest.failf "rows differ for %s" sql

let test_plan_memo_equiv () =
  let mk () =
    let db, _ = make_db ~rows:2000 ~value_range:5000 () in
    Database.build_index db (index [ "a" ]);
    Database.analyze db;
    db
  in
  let memo = mk () in
  let fresh = mk () in
  let queries values =
    List.iter
      (fun v -> memo_step memo fresh (Printf.sprintf "SELECT b FROM t WHERE a = %d" v))
      values;
    List.iter
      (fun v ->
        memo_step memo fresh
          (Printf.sprintf "SELECT a FROM t WHERE a BETWEEN %d AND %d" v (v + 50)))
      values
  in
  (* Repeats with fresh literals: memo hits must rebind, not replay. *)
  queries [ 5; 9; 13; 5; 9 ];
  let warm = Database.plan_cache_stats memo in
  Alcotest.(check bool) "memo hits happened" true (warm.Plan_cache.hits > 0);
  (* A design change fences the memo; choices must track the new design. *)
  Database.build_index memo (index [ "a"; "b" ]);
  Database.build_index fresh (index [ "a"; "b" ]);
  queries [ 5; 7; 5 ];
  let after_design = Database.plan_cache_stats memo in
  Alcotest.(check bool) "design change invalidated" true
    (after_design.Plan_cache.invalidations >= 1);
  (* DML bumps the statistics generation: keys computed under the new
     snapshot miss the memo and the fresh choices must still agree. *)
  ignore (Database.execute_sql memo "INSERT INTO t VALUES (1, 2, 3, 4)");
  ignore (Database.execute_sql fresh "INSERT INTO t VALUES (1, 2, 3, 4)");
  queries [ 5; 9; 5 ]

let test_plan_memo_view_probe () =
  let mk () =
    let db, _ = make_db ~rows:2000 ~value_range:50 () in
    Database.migrate_to db (Design.empty |> Design.add_view (view "a"));
    db
  in
  let memo = mk () in
  let fresh = mk () in
  List.iter
    (fun g ->
      let sql = Printf.sprintf "SELECT a, COUNT(*) FROM t WHERE a = %d GROUP BY a" g in
      memo_step memo fresh sql;
      (* The memoized probe must carry THIS statement's group value. *)
      match (Database.execute ~statement_key:"probe" memo (Cddpd_sql.Parser.parse_exn sql)).Database.plan with
      | Some { Plan.path = Plan.View_probe { group_value = Some v; _ }; _ } ->
          Alcotest.(check int) "rebound group value" g v
      | _ -> Alcotest.fail "expected a view probe")
    [ 3; 4; 3; 5 ]

let test_stats_generation_fence () =
  let db, _ = make_db ~rows:100 () in
  let g0 = Database.stats_generation db "t" in
  ignore (Database.table_stats db "t");
  Alcotest.(check int) "lazy materialization does not bump" g0
    (Database.stats_generation db "t");
  ignore (Database.execute_sql db "INSERT INTO t VALUES (1, 2, 3, 4)");
  Alcotest.(check bool) "DML bumps" true (Database.stats_generation db "t" > g0);
  let g1 = Database.stats_generation db "t" in
  Database.analyze db;
  Alcotest.(check bool) "analyze bumps" true (Database.stats_generation db "t" > g1)

(* -- incremental statistics ------------------------------------------------------- *)

module Sorted_column = Cddpd_engine.Sorted_column
module Reference = Cddpd_reference.Reference

let sorted_column_patch_prop =
  QCheck.Test.make ~name:"patch = sort of the new multiset" ~count:300
    QCheck.(
      triple
        (list (int_bound 20))
        (list (int_bound 20))
        (list (int_bound 20)))
    (fun (initial, removal_picks, added) ->
      (* Remove a sub-multiset of [initial]: every pick that is still held. *)
      let held = ref initial and removed = ref [] in
      List.iter
        (fun v ->
          if List.mem v !held then begin
            let rec drop = function
              | [] -> []
              | x :: rest -> if x = v then rest else x :: drop rest
            in
            held := drop !held;
            removed := v :: !removed
          end)
        removal_picks;
      let column = Sorted_column.of_unsorted (Array.of_list initial) in
      Sorted_column.patch column ~removed:(Array.of_list !removed) ~added:(Array.of_list added);
      Sorted_column.to_array column = Array.of_list (List.sort compare (!held @ added)))

let test_sorted_column_rejects_missing () =
  let column = Sorted_column.of_unsorted [| 1; 2 |] in
  Alcotest.check_raises "not held" (Invalid_argument "Sorted_column.patch: removed value not held")
    (fun () -> Sorted_column.patch column ~removed:[| 3 |] ~added:[||])

(* A text column between the integers keeps column positions honest, and
   two indexes give DML find phases that seek as well as scan. *)
let stats_schema =
  Schema.table "s"
    [ ("a", Schema.Int_type); ("n", Schema.Text_type); ("b", Schema.Int_type); ("c", Schema.Int_type) ]

let stats_fingerprints db =
  ( Table_stats.fingerprint (Database.table_stats db "s"),
    Table_stats.fingerprint (Reference.table_stats db "s") )

type stats_op =
  | Load of int * int  (** rows, value range *)
  | Insert of int * int * int
  | Delete of string  (** WHERE clause, "" for the whole table *)
  | Update of string * int * string  (** column, value, WHERE clause *)
  | Analyze
  | Compare  (** production statistics against the reference collection *)

let show_op = function
  | Load (rows, range) -> Printf.sprintf "load %d rows < %d" rows range
  | Insert (a, b, c) -> Printf.sprintf "insert (%d, %d, %d)" a b c
  | Delete where -> "delete" ^ where
  | Update (column, v, where) -> Printf.sprintf "update %s = %d%s" column v where
  | Analyze -> "analyze"
  | Compare -> "compare"

let apply_op db rng = function
  | Load (rows, range) ->
      Database.load db ~table:"s"
        (Array.init rows (fun i ->
             [|
               Tuple.Int (Rng.int rng range);
               Tuple.Text (string_of_int i);
               Tuple.Int (Rng.int rng range);
               Tuple.Int (Rng.int rng 3);
             |]))
  | Insert (a, b, c) ->
      ignore
        (Database.execute_sql db (Printf.sprintf "INSERT INTO s VALUES (%d, 'x', %d, %d)" a b c))
  | Delete where -> ignore (Database.execute_sql db ("DELETE FROM s" ^ where))
  | Update (column, v, where) ->
      ignore (Database.execute_sql db (Printf.sprintf "UPDATE s SET %s = %d%s" column v where))
  | Analyze -> Database.analyze db
  | Compare -> ()

(* Values stay under 12 so duplicates dominate; "a = 99" matches nothing. *)
let gen_where =
  QCheck.Gen.(
    frequency
      [
        (3, map (Printf.sprintf " WHERE a = %d") (int_bound 12));
        (2, map (Printf.sprintf " WHERE b < %d") (int_bound 12));
        (2, map2 (Printf.sprintf " WHERE b = %d AND c = %d") (int_bound 12) (int_bound 3));
        (1, return " WHERE a = 99");
        (1, return "");
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (1, map2 (fun rows range -> Load (rows, range)) (int_range 0 60) (int_range 1 12));
        (4, map3 (fun a b c -> Insert (a, b, c)) (int_bound 12) (int_bound 12) (int_bound 3));
        (2, map (fun where -> Delete where) (map (fun w -> if w = "" then " WHERE c = 1" else w) gen_where));
        ( 4,
          map3
            (fun column v where -> Update (column, v, where))
            (oneofl [ "a"; "b"; "c" ]) (int_bound 12) gen_where );
        (1, return (Delete ""));
        (1, return Analyze);
        (4, return Compare);
      ])

(* At every [Compare] step of a random load/DML/analyze sequence, and at its
   end, the incrementally maintained statistics equal a from-scratch
   collection bit for bit.  Between comparisons DML runs on stale
   statistics, so patches pile up between refreshes.  An initial load, a
   whole-table DELETE and INSERTs into the emptied table open every
   sequence. *)
let stats_incremental_prop =
  QCheck.Test.make ~name:"incremental statistics = reference collection" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(list (fun op -> show_op op))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let db = Database.create ~pool_capacity:64 [ stats_schema ] in
      Database.build_index db (Index_def.make ~table:"s" ~columns:[ "a" ]);
      Database.build_index db (Index_def.make ~table:"s" ~columns:[ "b"; "c" ]);
      let rng = Rng.create 11 in
      let prefix =
        [
          Load (80, 6); Compare; Update ("a", 3, " WHERE b = 2"); Compare; Delete ""; Compare;
          Insert (1, 1, 1); Insert (1, 1, 1); Compare;
        ]
      in
      List.for_all
        (fun (i, op) ->
          apply_op db rng op;
          match op with
          | Compare ->
              let production, reference = stats_fingerprints db in
              if not (String.equal production reference) then
                QCheck.Test.fail_reportf "statistics diverged at step %d" i;
              true
          | Load _ | Insert _ | Delete _ | Update _ | Analyze -> true)
        (List.mapi (fun i op -> (i, op)) (prefix @ ops @ [ Compare ])))

(* Maintaining statistics is not a statement's EXEC: the same DML on the
   same data measures the same logical I/O whether the statistics were
   fresh, stale after a load (a first collection scans the heap), or stale
   after earlier DML. *)
let test_dml_io_ignores_stale_stats () =
  let dml_io ~fresh ~after_insert sql =
    let db, _ = make_db ~rows:2000 () in
    Database.build_index db (index [ "a" ]);
    if after_insert then begin
      Database.analyze db;
      ignore (Database.execute_sql db "INSERT INTO t VALUES (1, 2, 3, 4)")
    end;
    if fresh then ignore (Database.table_stats db "t");
    (Database.execute_sql db sql).Database.logical_io
  in
  List.iter
    (fun sql ->
      let fresh = dml_io ~fresh:true ~after_insert:false sql in
      Alcotest.(check int) (sql ^ ": stale after load") fresh
        (dml_io ~fresh:false ~after_insert:false sql);
      Alcotest.(check int) (sql ^ ": stale after DML")
        (dml_io ~fresh:true ~after_insert:true sql)
        (dml_io ~fresh:false ~after_insert:true sql))
    [
      "UPDATE t SET b = 7 WHERE a = 3";
      "DELETE FROM t WHERE c = 5";
      "UPDATE t SET a = 1 WHERE d < 4";
      "SELECT b FROM t WHERE a = 3";
      "SELECT a, COUNT(*) FROM t GROUP BY a";
    ]

(* Failure-injection-adjacent stress: a buffer pool far smaller than the
   working set forces eviction on every scan; answers must not change and
   physical reads must appear. *)
let test_tiny_pool_correctness () =
  let make capacity =
    let db = Database.create ~pool_capacity:capacity [ paper_schema ] in
    let rng = Rng.create 21 in
    Database.load db ~table:"t"
      (Array.init 3000 (fun _ -> Array.init 4 (fun _ -> Tuple.Int (Rng.int rng 300))));
    Database.build_index db (index [ "a"; "b" ]);
    db
  in
  let big = make 4096 in
  let tiny = make 8 in
  List.iter
    (fun sql ->
      let expected = rows_sorted (Database.execute_sql big sql) in
      let got = Database.execute_sql tiny sql in
      if rows_sorted got <> expected then Alcotest.failf "answers differ for %s" sql)
    [
      "SELECT a FROM t WHERE a = 5";
      "SELECT b FROM t WHERE b = 9";
      "SELECT * FROM t WHERE c = 100";
      "SELECT a, COUNT(*) FROM t GROUP BY a";
    ];
  let result = Database.execute_sql tiny "SELECT c FROM t WHERE c = 7" in
  Alcotest.(check bool) "thrashing pool reads from disk" true
    (result.Database.physical_io > 0)

(* -- migration ---------------------------------------------------------------------- *)

let test_migrate_to () =
  let db, _ = make_db ~rows:500 () in
  let d1 = Design.of_list [ index [ "a" ]; index [ "c"; "d" ] ] in
  Database.migrate_to db d1;
  Alcotest.(check bool) "design materialised" true (Design.equal d1 (Database.current_design db));
  let d2 = Design.of_list [ index [ "b" ] ] in
  Database.migrate_to db d2;
  Alcotest.(check bool) "design replaced" true (Design.equal d2 (Database.current_design db));
  Database.migrate_to db Design.empty;
  Alcotest.(check bool) "back to empty" true
    (Design.is_empty (Database.current_design db))

let test_build_index_idempotent () =
  let db, _ = make_db ~rows:200 () in
  Database.build_index db (index [ "a" ]);
  Database.build_index db (index [ "a" ]);
  Alcotest.(check int) "one index" 1 (Design.cardinality (Database.current_design db))

(* -- bulk load ---------------------------------------------------------------------- *)

(* Loading into a table with prebuilt indexes/views takes the bulk path
   (heap-first insert + bulk-built index rebuilds); ?bulk:false forces the
   old row-at-a-time maintenance.  The two must be observationally equal. *)
let bulk_test_data rows =
  let rng = Rng.create 11 in
  Array.init rows (fun _ -> Array.init 4 (fun _ -> Tuple.Int (Rng.int rng 60)))

let make_preindexed_db ~bulk data =
  let db = Database.create ~pool_capacity:1024 [ paper_schema ] in
  Database.migrate_to db
    (Design.empty
    |> Design.add (index [ "a" ])
    |> Design.add (index [ "a"; "b" ])
    |> Design.add_view (view "c"));
  Database.load ~bulk db ~table:"t" data;
  db

let test_bulk_load_matches_row_at_a_time () =
  let data = bulk_test_data 4000 in
  let bulk_db = make_preindexed_db ~bulk:true data in
  let row_db = make_preindexed_db ~bulk:false data in
  Alcotest.(check int) "row counts agree" (Database.row_count row_db "t")
    (Database.row_count bulk_db "t");
  Alcotest.(check bool) "designs agree" true
    (Design.equal (Database.current_design row_db) (Database.current_design bulk_db));
  List.iter
    (fun sql ->
      let a = Database.execute_sql bulk_db sql in
      let b = Database.execute_sql row_db sql in
      let path r =
        match r.Database.plan with Some p -> Some p.Plan.path | None -> None
      in
      if path a <> path b then Alcotest.failf "plans differ for %s" sql;
      if rows_sorted a <> rows_sorted b then Alcotest.failf "rows differ for %s" sql)
    [
      "SELECT a, b FROM t WHERE a = 7";
      "SELECT a FROM t WHERE a BETWEEN 5 AND 9";
      "SELECT * FROM t WHERE d = 3";
      "SELECT c, COUNT(*) FROM t GROUP BY c";
      "SELECT c, SUM(b) FROM t WHERE c = 4 GROUP BY c";
    ]

let test_bulk_load_indexes_maintained_after () =
  (* Bulk-built indexes must keep absorbing DML like incrementally built
     ones. *)
  let db = make_preindexed_db ~bulk:true (bulk_test_data 1000) in
  ignore (Database.execute_sql db "INSERT INTO t VALUES (7, 7, 7, 7)");
  ignore (Database.execute_sql db "DELETE FROM t WHERE a = 9");
  let via_index = Database.execute_sql db "SELECT a, b FROM t WHERE a = 7" in
  (match via_index.Database.plan with
  | Some { Plan.path = Plan.Index_seek _ | Plan.Index_only_scan _; _ } -> ()
  | _ -> Alcotest.fail "expected the index");
  Database.migrate_to db Design.empty;
  let via_scan = Database.execute_sql db "SELECT a, b FROM t WHERE a = 7" in
  Alcotest.(check bool) "index agrees with heap after DML" true
    (rows_sorted via_index = rows_sorted via_scan)

let test_bulk_load_huge_value_spread () =
  (* Key components spanning nearly the whole int range defeat the packed
     single-word sort; the comparator fallback must produce the same
     state. *)
  let data =
    Array.init 500 (fun i ->
        let v = if i mod 2 = 0 then max_int - i else min_int + i in
        [| Tuple.Int v; Tuple.Int (i - 250); Tuple.Int 0; Tuple.Int 0 |])
  in
  let bulk_db = make_preindexed_db ~bulk:true data in
  let row_db = make_preindexed_db ~bulk:false data in
  List.iter
    (fun sql ->
      let a = Database.execute_sql bulk_db sql in
      let b = Database.execute_sql row_db sql in
      if rows_sorted a <> rows_sorted b then Alcotest.failf "rows differ for %s" sql)
    [
      Printf.sprintf "SELECT a, b FROM t WHERE a = %d" (max_int - 2);
      "SELECT a FROM t WHERE b BETWEEN -10 AND 10";
    ]

let test_bulk_load_rejects_whole_batch () =
  (* The bulk path validates every row up front: one bad row rejects the
     whole batch, leaving the table unchanged. *)
  let db = Database.create ~pool_capacity:256 [ paper_schema ] in
  Database.build_index db (index [ "a" ]);
  let bad =
    [| [| Tuple.Int 1; Tuple.Int 2; Tuple.Int 3; Tuple.Int 4 |]; [| Tuple.Int 1 |] |]
  in
  Alcotest.(check bool) "bad row rejected" true
    (match Database.load db ~table:"t" bad with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "nothing loaded" 0 (Database.row_count db "t")

let test_index_on_text_rejected () =
  let db =
    Database.create
      [ Schema.table "s" [ ("x", Schema.Int_type); ("n", Schema.Text_type) ] ]
  in
  Database.load db ~table:"s" [| [| Tuple.Int 1; Tuple.Text "a" |] |];
  Alcotest.(check bool) "text key rejected" true
    (match Database.build_index db (Index_def.make ~table:"s" ~columns:[ "n" ]) with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "engine"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "uniform equality" `Quick test_histogram_uniform_eq;
          Alcotest.test_case "out of range eq" `Quick test_histogram_eq_out_of_range;
          Alcotest.test_case "range" `Quick test_histogram_range;
          Alcotest.test_case "min/max" `Quick test_histogram_minmax;
          Alcotest.test_case "skew" `Quick test_histogram_skew;
          QCheck_alcotest.to_alcotest histogram_range_bounds_prop;
          Alcotest.test_case "of_sorted edge cases" `Quick test_histogram_of_sorted_edges;
          QCheck_alcotest.to_alcotest histogram_of_sorted_prop;
        ] );
      ( "schema+check",
        [
          Alcotest.test_case "lookups" `Quick test_schema_lookups;
          Alcotest.test_case "tuple validation" `Quick test_schema_validate_tuple;
          Alcotest.test_case "statement checking" `Quick test_check_statement;
        ] );
      ( "planner",
        [
          Alcotest.test_case "no index => scan" `Quick test_plan_no_index_scans;
          Alcotest.test_case "covering seek" `Quick test_plan_seek_with_index;
          Alcotest.test_case "non-covering seek" `Quick test_plan_noncovering_seek;
          Alcotest.test_case "index-only scan" `Quick test_plan_index_only_scan;
          Alcotest.test_case "star never covered" `Quick test_plan_star_never_covered;
          Alcotest.test_case "prefix + range" `Quick test_plan_composite_prefix_and_range;
          Alcotest.test_case "seek beats leaf scan" `Quick test_plan_prefers_seek_over_scan;
        ] );
      ( "executor",
        [
          Alcotest.test_case "no indexes" `Quick test_exec_no_indexes;
          Alcotest.test_case "single-column indexes" `Quick test_exec_single_indexes;
          Alcotest.test_case "composite indexes" `Quick test_exec_composite_indexes;
          Alcotest.test_case "full paper design space" `Quick test_exec_all_indexes;
          Alcotest.test_case "insert maintains indexes" `Quick test_exec_insert_updates_indexes;
          Alcotest.test_case "I/O measured" `Quick test_exec_io_measured;
          Alcotest.test_case "semantic errors raise" `Quick test_exec_semantic_error_raises;
          QCheck_alcotest.to_alcotest exec_design_independent_prop;
        ] );
      ( "dml",
        [
          Alcotest.test_case "delete basic" `Quick test_delete_basic;
          Alcotest.test_case "delete via index" `Quick test_delete_uses_index_and_maintains_it;
          Alcotest.test_case "bulk load = row-at-a-time load" `Quick
            test_bulk_load_matches_row_at_a_time;
          Alcotest.test_case "bulk-built indexes absorb DML" `Quick
            test_bulk_load_indexes_maintained_after;
          Alcotest.test_case "bulk load rejects whole batch" `Quick
            test_bulk_load_rejects_whole_batch;
          Alcotest.test_case "bulk load with huge value spread" `Quick
            test_bulk_load_huge_value_spread;
          Alcotest.test_case "delete everything" `Quick test_delete_everything;
          Alcotest.test_case "update basic" `Quick test_update_basic;
          Alcotest.test_case "update maintains indexes" `Quick test_update_maintains_indexes;
          Alcotest.test_case "mixed DML consistency" `Quick test_update_then_reference_agrees;
        ] );
      ( "views",
        [
          Alcotest.test_case "count matches scan" `Quick test_view_count_matches_scan;
          Alcotest.test_case "sum and probe" `Quick test_view_sum_and_probe;
          Alcotest.test_case "filtered aggregates bypass views" `Quick
            test_view_not_used_for_filtered_aggregates;
          Alcotest.test_case "maintained under DML" `Quick test_view_maintained_under_dml;
          Alcotest.test_case "text group rejected" `Quick test_view_on_text_column_rejected;
          Alcotest.test_case "design with views" `Quick test_view_in_design_name;
          QCheck_alcotest.to_alcotest view_maintenance_prop;
        ] );
      ( "plan memo",
        [
          Alcotest.test_case "memo = fresh across invalidations" `Quick
            test_plan_memo_equiv;
          Alcotest.test_case "view probe rebinds group value" `Quick
            test_plan_memo_view_probe;
          Alcotest.test_case "stats generation fence" `Quick
            test_stats_generation_fence;
        ] );
      ( "statistics",
        [
          QCheck_alcotest.to_alcotest sorted_column_patch_prop;
          Alcotest.test_case "patch rejects a missing value" `Quick
            test_sorted_column_rejects_missing;
          QCheck_alcotest.to_alcotest stats_incremental_prop;
          Alcotest.test_case "DML I/O ignores stale statistics" `Quick
            test_dml_io_ignores_stale_stats;
        ] );
      ( "stress",
        [ Alcotest.test_case "tiny buffer pool" `Quick test_tiny_pool_correctness ] );
      ( "migration",
        [
          Alcotest.test_case "migrate_to" `Quick test_migrate_to;
          Alcotest.test_case "build idempotent" `Quick test_build_index_idempotent;
          Alcotest.test_case "text key rejected" `Quick test_index_on_text_rejected;
        ] );
    ]
