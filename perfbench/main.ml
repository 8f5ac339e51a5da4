(* Command line of the repository benchmark:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]
   Prints a human-readable summary on stderr, then two JSON lines on
   stdout: the run's sizes and environment, and last the result object
   ({correct, attempted, failed, metrics}).  Exits 1 when a correctness
   check fails and 2 on bad arguments. *)

module Bench = Perfbench.Bench
module Outcome = Perfbench.Outcome
module Catalogue = Perfbench.Catalogue
module Json = Perfbench.Json

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]\n\
      workloads: " ^ String.concat ", " Bench.workloads);
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and jobs = ref (Bench.default_jobs ()) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s >= 0.0 -> seconds := s
        | Some _ | None -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with Some j -> jobs := j | None -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  match
    Bench.run ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~jobs:!jobs
      ~size:Bench.Full
  with
  | Error message ->
      prerr_endline ("perfbench: " ^ message);
      exit 2
  | Ok outcome ->
      List.iter
        (fun (name, ok) ->
          Printf.eprintf "check %-50s %s\n" name (if ok then "ok" else "FAILED"))
        outcome.Outcome.checks;
      List.iter
        (fun (name, value) -> Printf.eprintf "%-34s %.6g\n" name value)
        outcome.Outcome.metrics;
      (* Traced runs: the layer rows and the remainder add up to the traced
         replay's wall time. *)
      (match List.assoc_opt "accounting" outcome.Outcome.info with
      | Some (Json.Obj rows) ->
          let value = function Json.Float v -> v | _ -> 0.0 in
          let wall = List.fold_left (fun acc (_, v) -> acc +. value v) 0.0 rows in
          Printf.eprintf "\n%-34s %10s %7s\n" "layer (traced wall time)" "s" "share";
          List.iter
            (fun (name, v) ->
              Printf.eprintf "%-34s %10.4f %6.1f%%\n" name (value v)
                (100.0 *. value v /. wall))
            rows;
          Printf.eprintf "%-34s %10.4f\n" "total" wall
      | _ -> ());
      let units = if !trace then Catalogue.per_layer else Catalogue.end_to_end in
      print_endline (Json.to_string (Json.Obj outcome.Outcome.info));
      print_endline (Json.to_string (Outcome.result_json outcome ~units));
      if not (Outcome.correct outcome) then exit 1
