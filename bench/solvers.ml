(* Constrained solvers over large design spaces: BENCH_solvers.json.

   Synthetic instances spanning four design-space sizes, built through the
   real Config_space/Problem machinery: n = 7 is the paper's space (empty
   design + one singleton per candidate), n = 64/256/1024 are the full
   power sets of 6/8/10 candidate indexes.  Costs are a deterministic
   phased workload — each phase has one hot index that cuts execution
   cost, every carried structure adds maintenance overhead, and
   transitions pay per structure built — so the unconstrained optimum
   switches with the phases and the merging heuristic lands close enough
   to the constrained optimum to make a useful branch-and-bound seed.
   Nothing is random: reruns time the same instance.

   Timings are medians of [runs]; speedups are the ratio of medians.
   Checked on every run: pruning must not move the optimum. *)

module Config_space = Cddpd_core.Config_space
module Merging = Cddpd_core.Merging
module Staged_dag = Cddpd_graph.Staged_dag
module Kaware = Cddpd_graph.Kaware
module Ranking = Cddpd_graph.Ranking
module Structure = Cddpd_catalog.Structure
module Ast = Cddpd_sql.Ast
module T = Cddpd_util.Text_table
open Harness

let stages = 12
let phase_len = 4
let runs = 5
let ks = [ 1; 2; 3 ]
let ranking_max_n = 64
let ranking_max_queue = 262_144

let candidates m =
  List.init m (fun i ->
      Structure.index (Index_def.make ~table:"t" ~columns:[ Printf.sprintf "c%d" i ]))

let problem ~candidates space =
  let n = Config_space.size space in
  let designs = Config_space.designs space in
  let m = List.length candidates in
  let hot = Array.of_list candidates in
  let exec =
    Array.init stages (fun s ->
        let hot = hot.((s / phase_len) mod m) in
        Array.init n (fun c ->
            let design = designs.(c) in
            let base = if Design.mem_structure hot design then 40.0 else 100.0 in
            let overhead = 4.0 *. float_of_int (Design.cardinality design) in
            (* Tie-breaking noise, injective over configs at every stage
               (odd multiplier mod 2^10 permutes config ids): exact cost
               ties would keep whole families of equivalent states alive
               under the bound pruner and hide its effect.  Dyadic values,
               so the arithmetic stays exact. *)
            let jitter =
              float_of_int (((c * 2654435761) + (s * 97)) land 1023) *. 0.0078125
            in
            base +. overhead +. jitter))
  in
  let trans =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 0.0
            else
              let added =
                Design.fold
                  (fun st acc ->
                    if Design.mem_structure st designs.(i) then acc else acc + 1)
                  designs.(j) 0
              in
              15.0 *. float_of_int added))
  in
  let steps =
    Array.make stages [| Ast.Select { Ast.projection = Ast.Star; table = "t"; where = [] } |]
  in
  Problem.of_matrices ~steps ~space
    ~initial:(Config_space.id_of_exn space Design.empty)
    ~exec ~trans ()

let median f = snd (Timer.time_median ~repeats:runs f)

(* One JSON entry and one table row per (space, k). *)
let entry (candidates, max_structures) k =
  let space =
    Config_space.enumerate ~candidates ?max_structures ~size_of:(fun _ -> 1) ()
  in
  let problem = problem ~candidates space in
  let n = Config_space.size space in
  let graph = Problem.to_graph problem in
  let initial = Problem.initial_for_counting problem in
  let _, unconstrained_path = Staged_dag.shortest_path graph in
  (* The bound is a byproduct of the Merging heuristic, which the advisor
     pipeline computes anyway, so the timed region covers exactly the
     [Kaware.solve] call. *)
  let ub = Staged_dag.path_cost graph (Merging.refine problem ~k unconstrained_path) in
  let unpruned () = Kaware.solve ~jobs:1 graph ~k ~initial in
  let pruned () = Kaware.solve ~jobs:1 ~upper_bound:ub graph ~k ~initial in
  let baseline_s = median unpruned in
  let pruned_s = median pruned in
  (match (unpruned (), pruned ()) with
  | Some (c0, p0), Some (c1, p1) ->
      if not (Int64.equal (Int64.bits_of_float c0) (Int64.bits_of_float c1) && p0 = p1)
      then failwith (Printf.sprintf "solvers: pruned result differs at n=%d k=%d" n k)
  | _ -> failwith "solvers: kaware returned no path");
  let delta = counters pruned in
  let states_pruned = counter delta "advisor.kaware.states_pruned" in
  let states_alive = counter delta "advisor.kaware.nodes_expanded" in
  (* Ranking only on the small spaces.  Even a give-up is a datapoint: the
     budgets turn the paper's worst case (rank explosion at small k) into
     a bounded, reported failure instead of an OOM. *)
  let ranking =
    if n > ranking_max_n then None
    else begin
      let run () =
        Ranking.solve_constrained graph ~k ~initial ~upper_bound:ub
          ~max_queue:ranking_max_queue ()
      in
      let s = median run in
      (* The histogram gets exactly one observation per solve, so the
         delta's sum is this run's peak (percentiles don't diff across
         snapshots). *)
      let obs_peak =
        match Obs.Snapshot.find (counters run) "advisor.ranking.queue_peak" with
        | Some (Obs.Snapshot.Dist d) -> int_of_float d.Obs.Snapshot.sum
        | Some (Obs.Snapshot.Count _) | None -> 0
      in
      match run () with
      | `Found (_, _, rank) ->
          Some
            ( [ Printf.sprintf "%.2f" (s *. 1e3); string_of_int rank; string_of_int obs_peak ],
              Obj
                [
                  ("outcome", Str "found");
                  ("median_s", Float6 s);
                  ("rank", Int rank);
                  ("queue_peak", Int obs_peak);
                ] )
      | `Gave_up g ->
          let reason = Ranking.reason_to_string g.Ranking.reason in
          Some
            ( [
                Printf.sprintf "%.2f" (s *. 1e3);
                reason;
                string_of_int g.Ranking.queue_peak;
              ],
              Obj
                [
                  ("outcome", Str "gave_up");
                  ("reason", Str reason);
                  ("median_s", Float6 s);
                  ("examined", Int g.Ranking.examined);
                  ("queue_peak", Int g.Ranking.queue_peak);
                ] )
    end
  in
  let row =
    [
      string_of_int n;
      string_of_int k;
      Printf.sprintf "%.2f" (baseline_s *. 1e3);
      Printf.sprintf "%.2f" (pruned_s *. 1e3);
      Printf.sprintf "%.1fx" (baseline_s /. pruned_s);
      string_of_int states_pruned;
    ]
    @ match ranking with Some (cells, _) -> cells | None -> [ "-"; "-"; "-" ]
  in
  ( row,
    Obj
      [
        ("n", Int n);
        ("k", Int k);
        ("kaware_baseline_s", Float6 baseline_s);
        ("kaware_pruned_s", Float6 pruned_s);
        ("speedup", Float (baseline_s /. pruned_s));
        ("states_pruned", Int states_pruned);
        ("states_alive", Int states_alive);
        ("ranking", match ranking with Some (_, json) -> json | None -> Null);
      ] )

let run () =
  quiet @@ fun () ->
  let spaces =
    [
      (candidates 6, Some 1);  (* n = 7: the paper's space *)
      (candidates 6, None);  (* n = 64 *)
      (candidates 8, None);  (* n = 256 *)
      (candidates 10, None);  (* n = 1024 *)
    ]
  in
  let rows, entries =
    List.split (List.concat_map (fun space -> List.map (entry space) ks) spaces)
  in
  print_table
    [
      ("n", T.Right); ("k", T.Right); ("baseline ms", T.Right); ("pruned ms", T.Right);
      ("speedup", T.Right); ("states pruned", T.Right); ("ranking ms", T.Right);
      ("rank", T.Right); ("queue peak", T.Right);
    ]
    rows;
  Obj
    [
      ("schema", Str "cddpd-bench-solvers/1");
      ("stages", Int stages);
      ("phase_len", Int phase_len);
      ("runs", Int runs);
      ("cores", Int (Parallel.ncpu ()));
      ("entries", List entries);
    ]
