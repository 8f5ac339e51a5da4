module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Design = Cddpd_catalog.Design
module Schema = Cddpd_catalog.Schema
module Tuple = Cddpd_storage.Tuple
module Histogram = Cddpd_engine.Histogram
module Table_stats = Cddpd_engine.Table_stats
module Cost_model = Cddpd_engine.Cost_model
module Cost_key = Cddpd_engine.Cost_key
module Check = Cddpd_engine.Check
module Database = Cddpd_engine.Database
module Compress = Cddpd_workload.Compress
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem
module Advisor = Cddpd_core.Advisor
module Optimizer = Cddpd_core.Optimizer
module Solution = Cddpd_core.Solution
module Server = Cddpd_serve.Server
module Drift = Cddpd_serve.Drift
module Guard = Cddpd_serve.Guard

let problem ~params ~stats_of ~steps ~space ~initial ?(count_initial_change = false) () =
  let designs = Config_space.designs space in
  let exec =
    Array.map
      (fun step ->
        Array.map
          (fun design ->
            Array.fold_left
              (fun acc statement ->
                acc
                +. Cost_model.statement_cost params
                     (stats_of (Ast.table_of statement))
                     design statement)
              0.0 step)
          designs)
      steps
  in
  let trans =
    Array.map
      (fun from_design ->
        Array.map
          (fun to_design -> Cost_model.transition_cost params ~stats_of ~from_design ~to_design)
          designs)
      designs
  in
  Problem.of_matrices ~steps ~space
    ~initial:(Config_space.id_of_exn space initial)
    ~exec ~trans ~count_initial_change ()

(* -- statistics ---------------------------------------------------------------- *)

let table_stats db table =
  let schema = Option.get (Database.schema db table) in
  let int_columns =
    List.concat
      (List.mapi
         (fun pos (c : Schema.column) ->
           match c.Schema.ty with
           | Schema.Int_type -> [ (c.Schema.name, pos) ]
           | Schema.Text_type -> [])
         schema.Schema.columns)
  in
  let rows = ref [] in
  Database.iter_rows db table (fun tuple -> rows := tuple :: !rows);
  let rows = Array.of_list (List.rev !rows) in
  let histograms =
    List.map
      (fun (name, pos) ->
        (name, Histogram.build (Array.map (fun tuple -> Tuple.int_exn tuple.(pos)) rows)))
      int_columns
  in
  Table_stats.make ~row_count:(Array.length rows)
    ~page_count:(Database.page_count db table) ~histograms

(* -- serve replay ------------------------------------------------------------- *)

type window = { exec_logical_io : int; drift : float option; migrate_io : int }

type replay = {
  windows : window array;
  statements : int;
  exec_logical_io : int;
  trans_logical_io : int;
}

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The I/O the server's own migration after a window paid, if any. *)
let action_build_io = function
  | Server.Deployed { build_io; _ } | Server.Rolled_back { build_io; _ } -> build_io
  | Server.No_action | Server.Held _ | Server.Rejected _ -> 0

let compare_replay (report : Server.report) r =
  let ( let* ) = Result.bind in
  let same what show served replayed equal =
    if equal served replayed then Ok ()
    else Error (Printf.sprintf "%s: %s served, %s replayed" what (show served) (show replayed))
  in
  let count what = same what string_of_int in
  let drift = function None -> "-" | Some d -> Printf.sprintf "%h" d in
  let* () =
    count "windows" (Array.length report.Server.windows) (Array.length r.windows) Int.equal
  in
  let* () =
    Array.to_list report.Server.windows
    |> List.mapi (fun i w -> (i, w, r.windows.(i)))
    |> List.fold_left
         (fun acc (i, (w : Server.window_report), (got : window)) ->
           let* () = acc in
           let at what = Printf.sprintf "window %d: %s" i what in
           let* () = count (at "exec I/O") w.Server.exec_logical_io got.exec_logical_io Int.equal in
           let* () = same (at "drift") drift w.Server.drift got.drift (Option.equal same_float) in
           count (at "migration I/O") (action_build_io w.Server.action) got.migrate_io Int.equal)
         (Ok ())
  in
  let* () = count "statements" report.Server.statements r.statements Int.equal in
  let* () = count "exec I/O" report.Server.exec_logical_io r.exec_logical_io Int.equal in
  count "trans I/O" report.Server.trans_logical_io r.trans_logical_io Int.equal

let replay ?(on_text = fun ~closed:_ -> ()) db (cfg : Server.config)
    (report : Server.report) texts =
  let table = cfg.Server.table in
  let served = report.Server.windows in
  let logical_io () = fst (Database.io_counters db) in
  let buf = ref [] and fill = ref 0 and window_io = ref 0 in
  let prev = ref None and windows = ref [] in
  let statements = ref 0 and exec_io = ref 0 and trans_io = ref 0 in
  let close () =
    let fed = Array.of_list (List.rev !buf) in
    let stats = Database.table_stats db table in
    let gen = Database.stats_generation db table in
    let keys =
      Array.map
        (fun (statement, key, key_gen) ->
          if key_gen = gen then key else Cost_key.statement stats statement)
        fed
    in
    let profile = Drift.profile_of_clustering ~keys (Compress.cluster_keys keys) in
    let drift = Option.map (fun p -> Drift.distance p profile) !prev in
    let index = List.length !windows in
    let target =
      if index + 1 < Array.length served then served.(index + 1).Server.design
      else report.Server.final_design
    in
    let before = logical_io () in
    Database.migrate_to db target;
    let migrate_io = logical_io () - before in
    trans_io := !trans_io + migrate_io;
    windows := { exec_logical_io = !window_io; drift; migrate_io } :: !windows;
    prev := Some profile;
    buf := [];
    fill := 0;
    window_io := 0
  in
  let feed text =
    match Parser.parse text with
    | Error _ -> false
    | Ok statement -> (
        match Check.statement (Database.tables db) statement with
        | Error _ -> false
        | Ok () ->
            let key, key_gen =
              if Ast.is_read_only statement then
                ( Cost_key.statement (Database.table_stats db table) statement,
                  Database.stats_generation db table )
              else ("", -1)
            in
            let result = Database.execute ~skip_check:true db statement in
            incr statements;
            exec_io := !exec_io + result.Database.logical_io;
            window_io := !window_io + result.Database.logical_io;
            buf := (statement, key, key_gen) :: !buf;
            incr fill;
            if !fill = cfg.Server.window then begin
              close ();
              true
            end
            else false)
  in
  Array.iter (fun text -> on_text ~closed:(feed text)) texts;
  let r =
    {
      windows = Array.of_list (List.rev !windows);
      statements = !statements;
      exec_logical_io = !exec_io;
      trans_logical_io = !trans_io;
    }
  in
  Result.map (fun () -> r) (compare_replay report r)

(* -- serve re-optimization ------------------------------------------------------ *)

let projection_to_string (p : Guard.projection) =
  Printf.sprintf "target %d baseline %h projected %h regret %h" p.Guard.target
    p.Guard.baseline p.Guard.projected p.Guard.regret

(* Everything a decision is made of except the migration's measured I/O. *)
let decision_to_string = function
  | Server.No_action -> "no action"
  | Server.Held None -> "held"
  | Server.Held (Some p) -> "held, " ^ projection_to_string p
  | Server.Deployed { design; projection = None; _ } -> "deployed " ^ Design.name design
  | Server.Deployed { design; projection = Some p; _ } ->
      Printf.sprintf "deployed %s, %s" (Design.name design) (projection_to_string p)
  | Server.Rejected { design; projection } ->
      Printf.sprintf "rejected %s, %s" (Design.name design) (projection_to_string projection)
  | Server.Rolled_back { restored; _ } -> "rolled back to " ^ Design.name restored

(* The decision a from-scratch re-optimization of window [w] reaches. *)
let decide db (cfg : Server.config) ~trace (w : Server.window_report) =
  let window = cfg.Server.window in
  let lo = max 0 (w.Server.index - cfg.Server.history + 1) in
  let steps =
    Array.init (w.Server.index - lo + 1) (fun i -> Array.sub trace ((lo + i) * window) window)
  in
  let schema = Option.get (Database.schema db cfg.Server.table) in
  let problem =
    Advisor.build_problem db
      (Server.reoptimization_request cfg ~schema ~incumbent:w.Server.design steps)
  in
  match
    Optimizer.solve problem ~method_name:cfg.Server.method_name ~k:cfg.Server.k
      ?jobs:cfg.Server.jobs ()
  with
  | Error _ -> Server.Held None
  | Ok solution -> (
      let path = solution.Solution.path in
      let target = path.(Array.length path - 1) in
      let design = Config_space.design problem.Problem.space target in
      match
        Guard.assess problem ~target ~horizon:cfg.Server.horizon
          ~budget:cfg.Server.regret_budget
      with
      | Guard.No_change -> Server.Held None
      | Guard.Accept projection ->
          Server.Deployed { design; projection = Some projection; build_io = 0 }
      | Guard.Reject projection -> Server.Rejected { design; projection })

let reoptimize db (cfg : Server.config) ~trace (w : Server.window_report) =
  (match cfg.Server.regime with
  | Server.Continuous -> ()
  | Server.Static | Server.Reactive ->
      invalid_arg "Reference.reoptimize: continuous regime only");
  let due = w.Server.index = 0 || w.Server.drifted in
  let expected =
    match w.Server.action with
    | Server.Rolled_back _ -> w.Server.action
    | Server.No_action | Server.Held _ | Server.Deployed _ | Server.Rejected _ ->
        if due then decide db cfg ~trace w else Server.No_action
  in
  let served = decision_to_string w.Server.action in
  let rebuilt = decision_to_string expected in
  if String.equal served rebuilt then Ok ()
  else
    Error
      (Printf.sprintf "window %d: served %s, reference %s" w.Server.index served rebuilt)
