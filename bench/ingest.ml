(* The serve statement fast path: BENCH_ingest.json.

   The same phased raw-SQL trace served by the ingest fast path
   (statement-template cache, one-pass cost keys, plan-choice memo) and
   replayed by the reference oracle ({!Reference.replay}: fresh parse and
   validation, feed-time cost keys, unmemoized planning) on an
   identically-seeded database.  The fast path claims bit-identity, so
   every window's measured I/O, drift distance and migration I/O must
   match the replay, and every re-optimization must match
   {!Reference.reoptimize} — checked with failwith on every run, not just
   recorded.  The headline is ingest statement throughput: per-statement
   wall time is split into an ingest bucket (statements that only execute
   and buffer) and a close bucket (the one statement per window that also
   runs drift detection and, on the served side, re-optimization and
   deployment), and the gate is the ratio of ingest statements/s, floor
   [min_ratio]. *)

module Plan_cache = Cddpd_engine.Plan_cache
module Template = Cddpd_sql.Template
module Parser = Cddpd_sql.Parser
open Harness

let rows = 3_000
let value_range = 50_000
let window = 1_000
let pool_size = 48
let churn_every = 20  (* every 20th statement carries fresh literals *)
let min_ratio = 5.0

let phases =
  [| "a"; "a"; "a"; "a"; "a"; "b"; "b"; "b"; "b"; "b"; "a"; "a"; "a"; "a"; "a"; "a" |]

(* A wide table and wide statements: seven predicates each, so the
   per-statement front-end work (lex, parse, validate, cost-key every
   predicate, plan choice) — the work the fast path caches — dominates
   execution.  Both queried columns are indexed up front, so execution is
   a cheap point seek (almost always empty at this value range) in every
   window of both arms. *)
let schema =
  Schema.table "t"
    (List.map (fun c -> (c, Schema.Int_type)) [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])

let db () = fst (load_table ~indexes:[ [ "a" ]; [ "b" ] ] schema ~rows ~value_range ~seed:11)

let text column value lo =
  Printf.sprintf
    "SELECT a, b FROM t WHERE %s = %d AND c BETWEEN %d AND %d AND d = %d AND e = %d AND f \
     = %d AND g = %d AND h = %d"
    column value lo (lo + 40)
    (1 + (value mod 97))
    (1 + (lo mod 89))
    (1 + (value mod 83))
    (1 + (lo mod 79))
    (1 + (value mod 73))

(* Per phase column, a fixed pool of prepared-statement-like texts; the
   churn statements between them never repeat a literal, so the template
   layer must rebind, not just replay. *)
let trace () =
  let j = ref 0 in
  Array.concat
    (Array.to_list
       (Array.map
          (fun phase ->
            let pool =
              Array.init pool_size (fun i ->
                  text phase (1 + (i * 1_031 mod value_range)) (1 + (i * 157 mod value_range)))
            in
            Array.init window (fun i ->
                incr j;
                if i mod churn_every = 0 then
                  text phase (1 + (!j * 7_919 mod value_range)) (1 + (!j * 3_571 mod value_range))
                else pool.(i mod pool_size)))
          phases))

let config = { (Server.default_config ~table:"t") with Server.window; jobs = Some 1 }

type arm = {
  timing : timing;
  statements : int;
  exec_io : int;
  trans_io : int;
  template : Template.stats option;
  plan : Plan_cache.stats;
}

(* The served arm, plus its report and the digest over every window (the
   serve window digest and its what-if call count) and the report totals. *)
let serve_arm trace =
  let db = db () in
  let digests = ref [] in
  let on_close _ (w : Server.window_report) ~oracle_calls:_ ~oracle_s:_ =
    digests := Printf.sprintf "%s:%d" (window_digest w) w.Server.reopt_whatif_calls :: !digests
  in
  let feed server text =
    match Server.feed_sql server text with
    | Ok w -> w
    | Error message -> failwith ("ingest: rejected statement: " ^ message)
  in
  let server, timing =
    serve_checked ~what:"ingest" ~feed ~on_close db config
      ~trace:(Array.map Parser.parse_exn trace) trace
  in
  let r = Server.finish server in
  let digest =
    Printf.sprintf "%s %d:%d:%d:%d:%d:%d:%d:%d:%d:%s"
      (digest_of_list (List.rev !digests))
      r.Server.statements r.Server.residual_statements r.Server.drift_events
      r.Server.reoptimizations r.Server.deployments r.Server.rejections r.Server.rollbacks
      r.Server.exec_logical_io r.Server.trans_logical_io
      (Design.name r.Server.final_design)
  in
  ( {
      timing;
      statements = r.Server.statements;
      exec_io = r.Server.exec_logical_io;
      trans_io = r.Server.trans_logical_io;
      template = Server.template_stats server;
      plan = Database.plan_cache_stats db;
    },
    r,
    List.length !digests,
    digest )

(* The reference arm, timed between consecutive statements. *)
let reference_arm report trace =
  let db = db () in
  let ingest_s = ref 0.0 and close_s = ref 0.0 and ingest_n = ref 0 in
  let last = ref (Unix.gettimeofday ()) in
  let on_text ~closed =
    let now = Unix.gettimeofday () in
    if closed then close_s := !close_s +. (now -. !last)
    else begin
      ingest_s := !ingest_s +. (now -. !last);
      incr ingest_n
    end;
    last := now
  in
  match Reference.replay ~on_text db config report trace with
  | Error e -> failwith ("ingest: served run differs from the reference replay: " ^ e)
  | Ok r ->
      {
        timing = { ingest_s = !ingest_s; close_s = !close_s; ingest_statements = !ingest_n };
        statements = r.Reference.statements;
        exec_io = r.Reference.exec_logical_io;
        trans_io = r.Reference.trans_logical_io;
        template = None;
        plan = Database.plan_cache_stats db;
      }

let rate arm = float_of_int arm.timing.ingest_statements /. arm.timing.ingest_s

let arm_json a =
  Obj
    [
      ("statements", Int a.statements);
      ("ingest_statements", Int a.timing.ingest_statements);
      ("ingest_wall_s", Float6 a.timing.ingest_s);
      ("ingest_statements_per_s", Float (rate a));
      ("close_wall_s", Float6 a.timing.close_s);
      ("exec_logical_io", Int a.exec_io);
      ("trans_logical_io", Int a.trans_io);
      ( "template_cache",
        match a.template with
        | None -> Null
        | Some t ->
            Obj
              [
                ("exact_hits", Int t.Template.exact_hits);
                ("template_hits", Int t.Template.template_hits);
                ("misses", Int t.Template.misses);
                ("templates", Int t.Template.templates);
                ("entries", Int t.Template.entries);
              ] );
      ( "plan_cache",
        Obj
          [
            ("hits", Int a.plan.Plan_cache.hits);
            ("misses", Int a.plan.Plan_cache.misses);
            ("invalidations", Int a.plan.Plan_cache.invalidations);
            ("entries", Int a.plan.Plan_cache.entries);
          ] );
    ]

(* Instrumentation stays ENABLED: the window digests include what-if call
   counts, which are silent otherwise.  Both arms carry the same small
   accounting overhead. *)
let run () =
  instrumented @@ fun () ->
  let trace = trace () in
  Printf.printf
    "trace: %d windows x %d raw-SQL statements, %d pooled texts per phase, 1-in-%d literal \
     churn, phases %s\n%!"
    (Array.length phases) window pool_size churn_every
    (String.concat "" (Array.to_list phases));
  let fast, report, windows, digest = serve_arm trace in
  if windows <> Array.length phases then
    failwith "ingest: expected one closed window per phase entry";
  let slow = reference_arm report trace in
  let ratio = rate fast /. rate slow in
  List.iter
    (fun (label, a) ->
      Printf.printf "%-18s %d ingest statements in %.3fs (%.0f/s), window closes %.3fs\n%!"
        label a.timing.ingest_statements a.timing.ingest_s (rate a) a.timing.close_s)
    [ ("reference replay:", slow); ("served fast path:", fast) ];
  Option.iter
    (fun t ->
      Printf.printf "template cache: %d exact hits, %d template hits, %d misses, %d skeletons\n%!"
        t.Template.exact_hits t.Template.template_hits t.Template.misses t.Template.templates)
    fast.template;
  Printf.printf "plan memo: %d hits, %d misses, %d invalidations\n%!" fast.plan.Plan_cache.hits
    fast.plan.Plan_cache.misses fast.plan.Plan_cache.invalidations;
  Printf.printf "window digest %s\n%!" digest;
  Printf.printf
    "\ningest throughput ratio: %.1fx (floor %.0fx), windows and report match the reference\n%!"
    ratio min_ratio;
  if ratio < min_ratio then
    failwith
      (Printf.sprintf
         "ingest: fast/reference throughput ratio %.2fx below the %.0fx floor (%.0f/s vs %.0f/s)"
         ratio min_ratio (rate fast) (rate slow));
  Obj
    [
      ("schema", Str "cddpd-bench-ingest/1");
      ("rows", Int rows);
      ("value_range", Int value_range);
      ("window", Int window);
      ("pool", Int pool_size);
      ("churn_every", Int churn_every);
      ("phases", Str (String.concat "" (Array.to_list phases)));
      ("jobs", Int 1);
      ("cores", Int (Parallel.ncpu ()));
      ("fast", arm_json fast);
      ("slow", arm_json slow);
      ("throughput_ratio", Float ratio);
      ("min_ratio", Float min_ratio);
      ("window_digest", Str digest);
      ("digests_identical", Bool true);
    ]
