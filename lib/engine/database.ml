module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Schema = Cddpd_catalog.Schema
module Design = Cddpd_catalog.Design
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure
module Tuple = Cddpd_storage.Tuple
module Heap_file = Cddpd_storage.Heap_file
module Buffer_pool = Cddpd_storage.Buffer_pool
module Disk = Cddpd_storage.Disk
module Obs = Cddpd_obs

let m_migrations = Obs.Registry.counter "database.migrations"
let m_structures_built = Obs.Registry.counter "database.structures_built"
let m_structures_dropped = Obs.Registry.counter "database.structures_dropped"

(* An integer column's live values, ascending, for exact histograms. *)
type int_column = { name : string; pos : int; values : Sorted_column.t }

type table_state = {
  schema : Schema.table;
  heap : Heap_file.t;
  mutable indexes : Index.t list;
  mutable views : Mat_view.t list;
  mutable columns : int_column list option;
      (* schema order; None until the first collection after create or load *)
  mutable stats : Table_stats.t option; (* None when stale *)
  mutable stats_gen : int; (* bumped whenever the snapshot is invalidated or replaced *)
}

type t = {
  disk : Disk.t;
  pool : Buffer_pool.t;
  params : Cost_model.params;
  tables : (string, table_state) Hashtbl.t;
  table_order : string list;
  mutable design_memo : (Design.t * string) option;
      (* deployed design + its Cost_key, dropped on any structure change *)
  plan_cache : Plan_cache.t;
}

let create ?(pool_capacity = 256) ?readahead ?(params = Cost_model.default_params)
    schemas =
  (match schemas with [] -> invalid_arg "Database.create: no tables" | _ :: _ -> ());
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~capacity:pool_capacity ?readahead disk in
  let tables = Hashtbl.create 8 in
  List.iter
    (fun (schema : Schema.table) ->
      if Hashtbl.mem tables schema.Schema.name then
        invalid_arg "Database.create: duplicate table name";
      Hashtbl.replace tables schema.Schema.name
        {
          schema;
          heap = Heap_file.create pool;
          indexes = [];
          views = [];
          columns = None;
          stats = None;
          stats_gen = 0;
        })
    schemas;
  {
    disk;
    pool;
    params;
    tables;
    table_order = List.map (fun (s : Schema.table) -> s.Schema.name) schemas;
    design_memo = None;
    plan_cache = Plan_cache.create ();
  }

let params t = t.params

let table_state t name =
  match Hashtbl.find_opt t.tables name with
  | Some state -> state
  | None -> invalid_arg (Printf.sprintf "Database: unknown table %s" name)

let schema t name =
  Option.map (fun state -> state.schema) (Hashtbl.find_opt t.tables name)

let tables t = List.map (fun name -> (table_state t name).schema) t.table_order

let row_count t name = Heap_file.n_tuples (table_state t name).heap

let page_count t name = Heap_file.n_pages (table_state t name).heap

let iter_rows t name f = Heap_file.iter (table_state t name).heap (fun _rid tuple -> f tuple)

(* -- statistics ----------------------------------------------------------- *)

(* The first collection after create or load: one heap scan into an array
   per integer column, each sorted once and kept.  From then on DML
   patches the arrays ([patch_columns]), so a refresh reads no page. *)
let scan_columns state =
  let n = Heap_file.n_tuples state.heap in
  let buffers =
    List.concat
      (List.mapi
         (fun pos (c : Schema.column) ->
           match c.Schema.ty with
           | Schema.Int_type -> [ (c.Schema.name, pos, Array.make n 0) ]
           | Schema.Text_type -> [])
         state.schema.Schema.columns)
  in
  let row = ref 0 in
  Heap_file.iter state.heap (fun _rid tuple ->
      List.iter (fun (_, pos, buf) -> buf.(!row) <- Tuple.int_exn tuple.(pos)) buffers;
      incr row);
  List.map
    (fun (name, pos, buf) -> { name; pos; values = Sorted_column.of_unsorted buf })
    buffers

let collect_stats state =
  let columns =
    match state.columns with
    | Some columns -> columns
    | None ->
        let columns = scan_columns state in
        state.columns <- Some columns;
        columns
  in
  let histograms = List.map (fun c -> (c.name, Sorted_column.histogram c.values)) columns in
  Table_stats.make ~row_count:(Heap_file.n_tuples state.heap)
    ~page_count:(Heap_file.n_pages state.heap) ~histograms

let table_stats t name =
  let state = table_state t name in
  match state.stats with
  | Some stats -> stats
  | None ->
      let stats = collect_stats state in
      state.stats <- Some stats;
      stats

(* Invalidation bumps the table's statistics generation; [analyze] bumps
   it too because it *replaces* the snapshot.  Lazy materialization in
   [table_stats] does not bump, so within one generation there is at most
   one snapshot and generation equality proves two [table_stats] results
   are physically the same object — the fence the serve fast path keys
   cost identities on. *)
let invalidate_stats state =
  state.stats <- None;
  state.stats_gen <- state.stats_gen + 1

(* Bring the sorted columns up to date with one DML statement: the rows it
   removed and added, merged once per column.  [touches] limits the patch
   to the columns an UPDATE assigns.  Before the first collection there
   is nothing to patch. *)
let patch_columns ?(touches = fun _ -> true) state ~removed ~added =
  Option.iter
    (List.iter (fun c ->
         if touches c.name then
           let values rows =
             Array.of_list (List.map (fun (tuple : Tuple.t) -> Tuple.int_exn tuple.(c.pos)) rows)
           in
           Sorted_column.patch c.values ~removed:(values removed) ~added:(values added)))
    state.columns

(* Run one DML statement's mutation, which returns the rows it removed and
   added, then patch the columns and invalidate.  A mutation that raises
   part-way may leave the heap ahead of the columns, so the columns are
   dropped and the next collection rescans. *)
let mutate ?touches state f =
  match f () with
  | result, removed, added ->
      patch_columns ?touches state ~removed ~added;
      invalidate_stats state;
      result
  | exception e ->
      state.columns <- None;
      invalidate_stats state;
      raise e

let analyze t =
  List.iter
    (fun name ->
      let state = table_state t name in
      state.stats <- Some (collect_stats state);
      state.stats_gen <- state.stats_gen + 1)
    t.table_order

let stats_generation t name = (table_state t name).stats_gen

(* -- loading -------------------------------------------------------------- *)

let insert_row state tuple =
  (match Schema.validate_tuple state.schema tuple with
  | Ok () -> ()
  | Error message -> invalid_arg ("Database.load: " ^ message));
  let rid = Heap_file.insert state.heap tuple in
  List.iter (fun index -> Index.insert_entry index tuple rid) state.indexes;
  List.iter (fun view -> Mat_view.apply_insert view tuple) state.views

let validate_row state tuple =
  match Schema.validate_tuple state.schema tuple with
  | Ok () -> ()
  | Error message -> invalid_arg ("Database.load: " ^ message)

(* Bulk path: append every row to the heap first, then rebuild each
   existing index ([Index.build]: one heap scan, sort, [Btree.bulk_load])
   and materialized view from scratch, instead of descending a tree per
   row per structure.  Structure list order is preserved; old tree pages
   are not reclaimed, the same convention as [drop_index].  All rows are
   validated up front, so a bad row rejects the whole batch before any
   mutation (the row-at-a-time path fails mid-way instead). *)
let bulk_load t state rows =
  Array.iter (validate_row state) rows;
  let heap_was_empty = Heap_file.n_tuples state.heap = 0 in
  let rids = Array.map (fun tuple -> Heap_file.insert state.heap tuple) rows in
  state.indexes <-
    List.map
      (fun i ->
        (* When the batch is the whole heap, build each tree straight from
           the in-memory rows and the rids just assigned — no heap rescan,
           no per-row tuple decode. *)
        if heap_was_empty then
          Index.build_of_rows t.pool state.schema (Index.def i) ~rows ~rids
        else Index.build t.pool state.schema state.heap (Index.def i))
      state.indexes;
  state.views <-
    List.map (fun v -> Mat_view.build t.pool state.schema state.heap (Mat_view.def v)) state.views

let load ?(bulk = true) t ~table rows =
  let state = table_state t table in
  (match (bulk, state.indexes, state.views) with
  | false, _, _ | true, [], [] -> Array.iter (insert_row state) rows
  | true, _, _ -> bulk_load t state rows);
  (* Invalidate rather than recompute: statistics are rebuilt on the first
     [table_stats] call, the same convention as the DML paths.  Loading a
     table that is never analyzed costs no histogram pass; the sorted
     columns are dropped, so that call rescans the heap. *)
  state.columns <- None;
  invalidate_stats state

(* -- physical design ------------------------------------------------------ *)

(* Iterate in declared table order (not Hashtbl order) so the resulting
   design — and anything derived from it, like migration sequences — is
   deterministic across processes and hash seeds. *)
let compute_design t =
  List.fold_left
    (fun acc name ->
      let state = table_state t name in
      let acc =
        List.fold_left
          (fun acc index -> Design.add (Index.def index) acc)
          acc state.indexes
      in
      List.fold_left (fun acc view -> Design.add_view (Mat_view.def view) acc) acc state.views)
    Design.empty t.table_order

let current_design t =
  match t.design_memo with
  | Some (design, _) -> design
  | None ->
      let design = compute_design t in
      t.design_memo <- Some (design, Cost_key.design design);
      design

let design_key t =
  match t.design_memo with
  | Some (_, key) -> key
  | None ->
      let design = compute_design t in
      let key = Cost_key.design design in
      t.design_memo <- Some (design, key);
      key

(* Every actual structure change drops the design memo and flushes the
   plan memo: entries under the old design key would linger unreachable
   (the key embeds the design) and only waste the table's capacity. *)
let design_changed t =
  t.design_memo <- None;
  Plan_cache.invalidate t.plan_cache

let build_index t def =
  let state = table_state t (Index_def.table def) in
  let already = List.exists (fun i -> Index_def.equal (Index.def i) def) state.indexes in
  if not already then begin
    let index = Index.build t.pool state.schema state.heap def in
    state.indexes <- index :: state.indexes;
    design_changed t
  end

let drop_index t def =
  let state = table_state t (Index_def.table def) in
  if List.exists (fun i -> Index_def.equal (Index.def i) def) state.indexes then begin
    (* Pages of the dropped tree are not reclaimed by the simulated disk;
       dropping is a catalog-only operation, as in the cost model. *)
    state.indexes <-
      List.filter (fun i -> not (Index_def.equal (Index.def i) def)) state.indexes;
    design_changed t
  end

let build_view t def =
  let state = table_state t (View_def.table def) in
  let already = List.exists (fun v -> View_def.equal (Mat_view.def v) def) state.views in
  if not already then begin
    let view = Mat_view.build t.pool state.schema state.heap def in
    state.views <- view :: state.views;
    design_changed t
  end

let drop_view t def =
  let state = table_state t (View_def.table def) in
  if List.exists (fun v -> View_def.equal (Mat_view.def v) def) state.views then begin
    state.views <-
      List.filter (fun v -> not (View_def.equal (Mat_view.def v) def)) state.views;
    design_changed t
  end

let build_structure t structure =
  match structure with
  | Structure.Index def -> build_index t def
  | Structure.View def -> build_view t def

let drop_structure t structure =
  match structure with
  | Structure.Index def -> drop_index t def
  | Structure.View def -> drop_view t def

let migrate_to t target =
  let current = current_design t in
  let to_drop = Design.diff current target and to_build = Design.diff target current in
  Obs.Counter.incr m_migrations;
  Obs.Counter.add m_structures_dropped (Design.cardinality to_drop);
  Obs.Counter.add m_structures_built (Design.cardinality to_build);
  Design.fold (fun s () -> drop_structure t s) to_drop ();
  Design.fold (fun s () -> build_structure t s) to_build ()

(* -- execution ------------------------------------------------------------ *)

type exec_result = {
  rows : Tuple.t list;
  affected : int;
  plan : Plan.t option;
  logical_io : int;
  physical_io : int;
}

let pool_accesses t =
  let s = Buffer_pool.stats t.pool in
  s.Buffer_pool.hits + s.Buffer_pool.misses

let disk_reads t = (Disk.stats t.disk).Disk.reads

let compare_matches op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let eval_predicate schema tuple pred =
  match pred with
  | Ast.Cmp { column; op; value } ->
      let pos = Schema.column_index_exn schema column in
      compare_matches op (Tuple.compare_value tuple.(pos) value)
  | Ast.Between { column; low; high } ->
      let pos = Schema.column_index_exn schema column in
      Tuple.compare_value tuple.(pos) low >= 0
      && Tuple.compare_value tuple.(pos) high <= 0

(* Field accessor for a record encoded at [base] in [buf].  When every
   column before [pos] is an integer the field offset is fixed, so the
   accessor is a direct 8-byte read (the scan hot path); otherwise it
   falls back to the generic walk. *)
let compile_field_read schema pos =
  let columns = schema.Schema.columns in
  let rec all_int_prefix i cols =
    match cols with
    | [] -> true
    | (c : Schema.column) :: rest ->
        i >= pos || (c.Schema.ty = Schema.Int_type && all_int_prefix (i + 1) rest)
  in
  match List.nth_opt columns pos with
  | Some { Schema.ty = Schema.Int_type; _ } when all_int_prefix 0 columns ->
      (* tag byte at base + 2 + 9*pos, payload right after *)
      let off = 2 + (9 * pos) + 1 in
      fun buf base -> Tuple.Int (Int64.to_int (Bytes.get_int64_le buf (base + off)))
  | Some _ | None -> fun buf base -> Tuple.get_field_at buf ~base pos

(* Compile the conjunction to run against encoded records, resolving
   column positions and field offsets once — the scan hot path must not
   decode whole tuples or search the schema per row. *)
let compile_predicates_slices schema preds =
  (* Fixed-offset integer predicate: compare without boxing the field and
     with the operator resolved at compile time. *)
  let int_fast_path column op v =
    let pos = Schema.column_index_exn schema column in
    let columns = schema.Schema.columns in
    let all_int_prefix =
      List.for_all (fun (c : Schema.column) -> c.Schema.ty = Schema.Int_type) columns
    in
    if not all_int_prefix then None
    else
      let off = 2 + (9 * pos) + 1 in
      let read buf base = Int64.to_int (Bytes.get_int64_le buf (base + off)) in
      Some
        (match op with
        | Ast.Eq -> fun buf base -> read buf base = v
        | Ast.Lt -> fun buf base -> read buf base < v
        | Ast.Le -> fun buf base -> read buf base <= v
        | Ast.Gt -> fun buf base -> read buf base > v
        | Ast.Ge -> fun buf base -> read buf base >= v)
  in
  let compile pred =
    match pred with
    | Ast.Cmp { column; op; value = Tuple.Int v } when Option.is_some (int_fast_path column op v)
      -> (
        match int_fast_path column op v with Some test -> test | None -> assert false)
    | Ast.Cmp { column; op; value } ->
        let read = compile_field_read schema (Schema.column_index_exn schema column) in
        fun buf base -> compare_matches op (Tuple.compare_value (read buf base) value)
    | Ast.Between { column; low = Tuple.Int lo; high = Tuple.Int hi }
      when Option.is_some (int_fast_path column Ast.Ge lo) ->
        let ge = Option.get (int_fast_path column Ast.Ge lo) in
        let le = Option.get (int_fast_path column Ast.Le hi) in
        fun buf base -> ge buf base && le buf base
    | Ast.Between { column; low; high } ->
        let read = compile_field_read schema (Schema.column_index_exn schema column) in
        fun buf base ->
          let v = read buf base in
          Tuple.compare_value v low >= 0 && Tuple.compare_value v high <= 0
  in
  match List.map compile preds with
  | [] -> fun _buf _base -> true
  | [ single ] -> single
  | compiled -> fun buf base -> List.for_all (fun test -> test buf base) compiled

let compile_project_slices schema projection =
  let positions =
    match projection with
    | Ast.Star -> List.init (Schema.arity schema) (fun i -> i)
    | Ast.Columns cs -> List.map (Schema.column_index_exn schema) cs
  in
  let reads = Array.of_list (List.map (compile_field_read schema) positions) in
  fun buf base -> Array.map (fun read -> read buf base) reads

let project schema projection tuple =
  match projection with
  | Ast.Star -> tuple
  | Ast.Columns cs ->
      let positions = List.map (Schema.column_index_exn schema) cs in
      Array.of_list (List.map (fun pos -> tuple.(pos)) positions)

let key_position key_columns column =
  let rec go i columns =
    match columns with
    | [] -> failwith "Database: covering plan references a non-key column"
    | c :: rest -> if String.equal c column then i else go (i + 1) rest
  in
  go 0 key_columns

(* Compile the conjunction to run against index entries (leaf buffer +
   entry offset; key column j's value at offset + 8j); only valid when
   every predicate column is a key column, which covering plans guarantee.
   Int-typed comparisons are resolved at compile time since index keys are
   always integers. *)
let compile_predicates_on_entry key_columns preds =
  let int_bound name value =
    match value with
    | Tuple.Int v -> v
    | Tuple.Text _ -> failwith ("Database: covering plan with text literal in " ^ name)
  in
  let entry_value buf pos off = Int64.to_int (Bytes.get_int64_le buf (pos + off)) in
  let compile pred =
    match pred with
    | Ast.Cmp { column; op; value } -> (
        let off = 8 * key_position key_columns column in
        let v = int_bound column value in
        match op with
        | Ast.Eq -> fun buf pos -> entry_value buf pos off = v
        | Ast.Lt -> fun buf pos -> entry_value buf pos off < v
        | Ast.Le -> fun buf pos -> entry_value buf pos off <= v
        | Ast.Gt -> fun buf pos -> entry_value buf pos off > v
        | Ast.Ge -> fun buf pos -> entry_value buf pos off >= v)
    | Ast.Between { column; low; high } ->
        let off = 8 * key_position key_columns column in
        let lo = int_bound column low and hi = int_bound column high in
        fun buf pos ->
          let v = entry_value buf pos off in
          v >= lo && v <= hi
  in
  match List.map compile preds with
  | [] -> fun _buf _pos -> true
  | [ single ] -> single
  | compiled -> fun buf pos -> List.for_all (fun test -> test buf pos) compiled

(* Compile the projection against index entries. *)
let compile_project_entry key_columns projection =
  match projection with
  | Ast.Star -> failwith "Database: covering plan with * projection"
  | Ast.Columns cs ->
      let offsets = Array.of_list (List.map (fun c -> 8 * key_position key_columns c) cs) in
      fun buf pos ->
        Array.map
          (fun off -> Tuple.Int (Int64.to_int (Bytes.get_int64_le buf (pos + off))))
          offsets

let run_select state (select : Ast.select) plan =
  let matches tuple = List.for_all (eval_predicate state.schema tuple) select.Ast.where in
  let emit = project state.schema select.Ast.projection in
  let find_index def =
    match List.find_opt (fun i -> Index_def.equal (Index.def i) def) state.indexes with
    | Some index -> index
    | None -> failwith "Database: plan references an index that is not materialised"
  in
  match plan.Plan.path with
  | Plan.Full_scan ->
      let row_matches = compile_predicates_slices state.schema select.Ast.where in
      let emit_slice = compile_project_slices state.schema select.Ast.projection in
      let rows = ref [] in
      Heap_file.iter_slices state.heap (fun buf base ->
          if row_matches buf base then rows := emit_slice buf base :: !rows);
      List.rev !rows
  | Plan.Index_seek { index = def; eq_prefix; range; covering } ->
      let index = find_index def in
      if covering then
        let key_columns = Index.columns index in
        let entry_matches = compile_predicates_on_entry key_columns select.Ast.where in
        let emit_entry = compile_project_entry key_columns select.Ast.projection in
        let rows = ref [] in
        Index.probe_slices index ~eq_prefix ~range (fun buf pos ->
            if entry_matches buf pos then rows := emit_entry buf pos :: !rows);
        List.rev !rows
      else
        let rids = Index.probe index ~eq_prefix ~range in
        List.filter_map
          (fun rid ->
            match Heap_file.fetch state.heap rid with
            | Some tuple when matches tuple -> Some (emit tuple)
            | Some _ | None -> None)
          rids
  | Plan.Index_only_scan { index = def } ->
      let index = find_index def in
      let key_columns = Index.columns index in
      let entry_matches = compile_predicates_on_entry key_columns select.Ast.where in
      let emit_entry = compile_project_entry key_columns select.Ast.projection in
      let rows = ref [] in
      Index.scan_slices index (fun buf pos ->
          if entry_matches buf pos then rows := emit_entry buf pos :: !rows);
      List.rev !rows
  | Plan.View_probe _ -> failwith "Database: view plan for a non-aggregate query"

(* Victim collection for DELETE/UPDATE: plan the WHERE clause like a
   SELECT * (never covered, so the plan yields heap rows) and return the
   matching (rid, tuple) pairs before any mutation. *)
let collect_matching t state ~table ~where =
  let find_select = { Ast.projection = Ast.Star; table; where } in
  let stats = table_stats t table in
  let plan = Cost_model.choose_plan t.params stats (current_design t) find_select in
  let matches tuple = List.for_all (eval_predicate state.schema tuple) where in
  let victims =
    match plan.Plan.path with
    | Plan.Full_scan ->
        let out = ref [] in
        Heap_file.iter state.heap (fun rid tuple ->
            if matches tuple then out := (rid, tuple) :: !out);
        List.rev !out
    | Plan.Index_seek { index = def; eq_prefix; range; covering = _ } ->
        let index =
          match
            List.find_opt (fun i -> Index_def.equal (Index.def i) def) state.indexes
          with
          | Some index -> index
          | None -> failwith "Database: plan references an index that is not materialised"
        in
        Index.probe index ~eq_prefix ~range
        |> List.filter_map (fun rid ->
               match Heap_file.fetch state.heap rid with
               | Some tuple when matches tuple -> Some (rid, tuple)
               | Some _ | None -> None)
    | Plan.Index_only_scan _ | Plan.View_probe _ ->
        (* Star projections are never covered, and DML never plans views. *)
        assert false
  in
  (victims, plan)

let delete_row state rid tuple =
  ignore (Heap_file.delete state.heap rid);
  List.iter (fun index -> ignore (Index.delete_entry index tuple rid)) state.indexes;
  List.iter (fun view -> Mat_view.apply_delete view tuple) state.views

let run_delete t ~table ~where =
  let state = table_state t table in
  mutate state (fun () ->
      let victims, plan = collect_matching t state ~table ~where in
      List.iter (fun (rid, tuple) -> delete_row state rid tuple) victims;
      ((List.length victims, plan), List.map snd victims, []))

let run_update t ~table ~assignments ~where =
  let state = table_state t table in
  let apply tuple =
    let updated = Array.copy tuple in
    List.iter
      (fun (column, value) ->
        updated.(Schema.column_index_exn state.schema column) <- value)
      assignments;
    updated
  in
  let touches column = List.exists (fun (c, _) -> String.equal c column) assignments in
  mutate ~touches state (fun () ->
      let victims, plan = collect_matching t state ~table ~where in
      (* Implemented as delete + reinsert, which keeps every index consistent
         even when an assignment touches a key column. *)
      let updated =
        List.map
          (fun (rid, tuple) ->
            delete_row state rid tuple;
            let row = apply tuple in
            insert_row state row;
            row)
          victims
      in
      ((List.length victims, plan), List.map snd victims, updated))

(* Run an aggregate query: either from a matching materialized view or by
   scanning and hashing on the fly. *)
let run_select_agg t ~table ~group_by ~aggregate ~where plan =
  let state = table_state t table in
  let emit group value = [| Tuple.Int group; Tuple.Int value |] in
  match plan.Plan.path with
  | Plan.View_probe { view = view_def; group_value } -> (
      let view =
        match
          List.find_opt
            (fun v -> View_def.equal (Mat_view.def v) view_def)
            state.views
        with
        | Some view -> view
        | None -> failwith "Database: plan references a view that is not materialised"
      in
      let of_row (row : Mat_view.row) =
        let value =
          match aggregate with
          | Ast.Count_star -> row.Mat_view.count
          | Ast.Sum column ->
              let rec position i columns =
                match columns with
                | [] -> failwith "Database: view lacks the summed column"
                | c :: rest -> if String.equal c column then i else position (i + 1) rest
              in
              row.Mat_view.sums.(position 0 (Mat_view.sum_columns view))
        in
        emit row.Mat_view.group_value value
      in
      match group_value with
      | Some g -> (
          match Mat_view.lookup view g with
          | Some row -> [ of_row row ]
          | None -> [])
      | None ->
          let out = ref [] in
          Mat_view.scan view (fun row -> out := of_row row :: !out);
          List.rev !out)
  | Plan.Full_scan ->
      (* Hash aggregation over a filtered scan. *)
      let matches = compile_predicates_slices state.schema where in
      let group_read = compile_field_read state.schema (Schema.column_index_exn state.schema group_by) in
      let agg_read =
        match aggregate with
        | Ast.Count_star -> None
        | Ast.Sum column ->
            Some (compile_field_read state.schema (Schema.column_index_exn state.schema column))
      in
      let groups = Hashtbl.create 64 in
      Heap_file.iter_slices state.heap (fun buf base ->
          if matches buf base then begin
            let g = Tuple.int_exn (group_read buf base) in
            let delta =
              match agg_read with
              | None -> 1
              | Some read -> Tuple.int_exn (read buf base)
            in
            Hashtbl.replace groups g (delta + Option.value ~default:0 (Hashtbl.find_opt groups g))
          end);
      Hashtbl.to_seq groups |> List.of_seq
      |> List.sort (fun (g1, v1) (g2, v2) ->
             let c = Int.compare g1 g2 in
             if c <> 0 then c else Int.compare v1 v2)
      |> List.map (fun (g, v) -> emit g v)
  | Plan.Index_seek _ | Plan.Index_only_scan _ ->
      failwith "Database: unexpected plan for an aggregate query"

(* Plan-choice memo, engaged only when the caller passes the statement's
   cost-identity key (serve's ingest fast path).  The combined
   [design_key ^ "\n" ^ statement_key] is self-fencing against statistics
   churn — see {!Plan_cache} — so a hit returns the bit-identical plan a
   fresh choice would make, with the statement's own literals rebound into
   the cached path.  [Plan.count_choice] keeps the plan.chosen.* metrics
   consistent with the slow path. *)
let memoized_plan t ~statement_key ~rebind compute =
  match statement_key with
  | None -> compute ()
  | Some skey -> (
      let key = design_key t ^ "\n" ^ skey in
      match Plan_cache.find t.plan_cache key with
      | Some cached -> (
          match rebind cached with
          | Some plan ->
              Plan.count_choice plan;
              plan
          | None ->
              let plan = compute () in
              Plan_cache.store t.plan_cache key plan;
              plan)
      | None ->
          let plan = compute () in
          Plan_cache.store t.plan_cache key plan;
          plan)

let plan_cache_stats t = Plan_cache.stats t.plan_cache

let execute ?statement_key ?(skip_check = false) t statement =
  if not skip_check then Check.statement_exn (tables t) statement;
  (* Every statement but INSERT plans on current statistics; bring them up
     to date before the meters start, since maintaining statistics is not
     the statement's own I/O. *)
  (match statement with
  | Ast.Insert _ -> ()
  | Ast.Select { table; _ } | Ast.Select_agg { table; _ } | Ast.Delete { table; _ }
  | Ast.Update { table; _ } ->
      ignore (table_stats t table));
  let logical_before = pool_accesses t in
  let physical_before = disk_reads t in
  let rows, affected, plan =
    match statement with
    | Ast.Select select ->
        let state = table_state t select.Ast.table in
        let plan =
          memoized_plan t ~statement_key
            ~rebind:(Cost_model.rebind_select_plan select)
            (fun () ->
              Cost_model.choose_plan t.params
                (table_stats t select.Ast.table)
                (current_design t) select)
        in
        (run_select state select plan, 0, Some plan)
    | Ast.Select_agg { table; group_by; aggregate; where } ->
        let plan =
          memoized_plan t ~statement_key
            ~rebind:(Cost_model.rebind_agg_plan ~group_by ~where)
            (fun () ->
              Cost_model.choose_agg_plan t.params (table_stats t table)
                (current_design t) ~table ~group_by ~where)
        in
        (run_select_agg t ~table ~group_by ~aggregate ~where plan, 0, Some plan)
    | Ast.Insert { table; values } ->
        let state = table_state t table in
        let row = Array.of_list values in
        mutate state (fun () ->
            insert_row state row;
            ((), [], [ row ]));
        ([], 1, None)
    | Ast.Delete { table; where } ->
        let affected, plan = run_delete t ~table ~where in
        ([], affected, Some plan)
    | Ast.Update { table; assignments; where } ->
        let affected, plan = run_update t ~table ~assignments ~where in
        ([], affected, Some plan)
  in
  {
    rows;
    affected;
    plan;
    logical_io = pool_accesses t - logical_before;
    physical_io = disk_reads t - physical_before;
  }

let execute_sql t sql = execute t (Parser.parse_exn sql)

(* -- measurement ---------------------------------------------------------- *)

let io_counters t = (pool_accesses t, disk_reads t)

let reset_io_counters t =
  Buffer_pool.reset_stats t.pool;
  Disk.reset_stats t.disk

let drop_buffer_cache t = Buffer_pool.drop_cache t.pool
