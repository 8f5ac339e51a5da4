(* What the bench suites share: instrumentation brackets, bit-exact
   digests, the table loader, the BENCH JSON writer and the serve loop
   that checks every window against the reference oracle. *)

module Obs = Cddpd_obs
module Database = Cddpd_engine.Database
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Design = Cddpd_catalog.Design
module Problem = Cddpd_core.Problem
module Server = Cddpd_serve.Server
module Reference = Cddpd_reference.Reference
module Timer = Cddpd_util.Timer
module Text_table = Cddpd_util.Text_table
module Parallel = Cddpd_util.Parallel

(* -- instrumentation ------------------------------------------------------ *)

(* Timed arms run with instrumentation off so main-domain metric recording
   cannot skew them; [instrumented] is for runs whose counters are the
   measurement.  Both restore the previous state, also on exception. *)
let quiet f =
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.disable ();
  Fun.protect ~finally:(fun () -> if was_enabled then Obs.Registry.enable ()) f

let instrumented = Obs.Registry.with_enabled

(* The counter deltas of one instrumented, untimed run of [f]. *)
let counters f =
  instrumented (fun () ->
      let before = Obs.Snapshot.capture () in
      ignore (Sys.opaque_identity (f ()));
      Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()))

let counter delta name =
  Option.value ~default:0 (Obs.Snapshot.counter_value delta name)

(* -- digests ----------------------------------------------------------------- *)

let digest_of_list parts = Digest.to_hex (Digest.string (String.concat "|" parts))

(* EXEC then TRANS, every float by its bit pattern. *)
let matrix_digest (problem : Problem.t) =
  let buf = Buffer.create (1 lsl 16) in
  let add m =
    Array.iter
      (Array.iter (fun x -> Buffer.add_int64_ne buf (Int64.bits_of_float x)))
      m
  in
  add problem.Problem.exec;
  add problem.Problem.trans;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* -- tables -------------------------------------------------------------------- *)

(* A fresh database holding one table of uniform random integers.  The
   [indexes] are built before the load, so the load maintains them, and
   statistics are collected after it.  Returns the database and the wall
   seconds of the load call alone. *)
let load_table ?(indexes = []) ?bulk schema ~rows ~value_range ~seed =
  let table = schema.Schema.name in
  let data =
    Cddpd_workload.Data_gen.uniform_rows
      ~columns:(List.length schema.Schema.columns)
      ~rows ~value_range ~seed
  in
  let db = Database.create ~pool_capacity:8192 [ schema ] in
  List.iter (fun columns -> Database.build_index db (Index_def.make ~table ~columns)) indexes;
  let (), load_s = Timer.time (fun () -> Database.load ?bulk db ~table data) in
  Database.analyze db;
  (db, load_s)

let print_table columns rows =
  let table = Text_table.create columns in
  List.iter (Text_table.add_row table) rows;
  Text_table.print table

(* -- BENCH JSON ------------------------------------------------------------------ *)

(* Compact, keys in the given order.  [Float] prints 3 decimals, [Float6]
   6 (sub-millisecond timings); non-finite floats print as null. *)
type json =
  | Int of int
  | Float of float
  | Float6 of float
  | Bool of bool
  | Str of string
  | Null
  | List of json list
  | Obj of (string * json) list

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec add_json buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.3f" f)
  | Float6 f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.6f" f)
  | Float _ | Float6 _ | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s -> Buffer.add_string buf ("\"" ^ escape s ^ "\"")
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf ("\"" ^ k ^ "\":");
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let write_json path json =
  let buf = Buffer.create 4096 in
  add_json buf json;
  Buffer.add_char buf '\n';
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)

(* -- the oracle-checked serve loop ---------------------------------------- *)

let action_fingerprint = function
  | Server.No_action -> "none"
  | Server.Held _ -> "held"
  | Server.Deployed { design; _ } -> "deploy:" ^ Design.name design
  | Server.Rejected { design; _ } -> "reject:" ^ Design.name design
  | Server.Rolled_back { restored; _ } -> "rollback:" ^ Design.name restored

(* %h keeps the drift distance bit-precise. *)
let window_digest (w : Server.window_report) =
  Printf.sprintf "%d:%d:%d:%s:%b:%s" w.Server.index w.Server.n_statements
    w.Server.exec_logical_io
    (match w.Server.drift with None -> "-" | Some d -> Printf.sprintf "%h" d)
    w.Server.drifted
    (action_fingerprint w.Server.action)

let cost_model_calls = Obs.Registry.counter "cost_model.calls"

type timing = {
  ingest_s : float;  (** wall seconds in statements that closed no window *)
  close_s : float;  (** wall seconds in window-closing statements, oracle excluded *)
  ingest_statements : int;
}

(* Feed [inputs] one by one through a server over [db].  At every window
   close the server's hook rebuilds the decision from scratch
   ({!Reference.reoptimize} over [trace], the parsed inputs) and fails on
   any difference.  [on_close] then sees the window with the what-if calls
   and wall seconds of that rebuild; the call count reads zero unless
   instrumentation is on. *)
let serve_checked ~what ~feed ~on_close db config ~trace inputs =
  let oracle = ref (0, 0.0) and oracle_s = ref 0.0 in
  let on_window w =
    let calls = Obs.Counter.value cost_model_calls in
    let result, elapsed =
      Timer.time (fun () -> Reference.reoptimize db config ~trace w)
    in
    (match result with Ok () -> () | Error e -> failwith (what ^ ": " ^ e));
    oracle_s := !oracle_s +. elapsed;
    oracle := (Obs.Counter.value cost_model_calls - calls, elapsed)
  in
  let server = Server.create ~on_window db config in
  let ingest_s = ref 0.0 and close_s = ref 0.0 and ingest_n = ref 0 in
  Array.iter
    (fun input ->
      let w, elapsed = Timer.time (fun () -> feed server input) in
      match w with
      | None ->
          ingest_s := !ingest_s +. elapsed;
          incr ingest_n
      | Some w ->
          close_s := !close_s +. elapsed;
          let calls, s = !oracle in
          on_close server w ~oracle_calls:calls ~oracle_s:s)
    inputs;
  ( server,
    { ingest_s = !ingest_s; close_s = !close_s -. !oracle_s; ingest_statements = !ingest_n } )
