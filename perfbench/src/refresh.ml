module Database = Cddpd_engine.Database

type t = {
  db : Database.t;
  table : string;
  mutable last_gen : int;
  mutable refreshes : int;
  mutable refresh_ns : int;
  mutable lookups : int;
  mutable lookup_ns : int;
}

let create db table =
  {
    db;
    table;
    last_gen = Database.stats_generation db table;
    refreshes = 0;
    refresh_ns = 0;
    lookups = 0;
    lookup_ns = 0;
  }

let is_refresh ~last_gen ~gen = gen <> last_gen

let table_stats t =
  let gen = Database.stats_generation t.db t.table in
  let t0 = Clock.now_ns () in
  let stats = Database.table_stats t.db t.table in
  let elapsed = Clock.since_ns t0 in
  if is_refresh ~last_gen:t.last_gen ~gen then begin
    t.refreshes <- t.refreshes + 1;
    t.refresh_ns <- t.refresh_ns + elapsed
  end
  else begin
    t.lookups <- t.lookups + 1;
    t.lookup_ns <- t.lookup_ns + elapsed
  end;
  t.last_gen <- gen;
  stats

let refreshes t = t.refreshes
let refresh_s t = Clock.s_of_ns t.refresh_ns
let lookups t = t.lookups
let lookup_s t = Clock.s_of_ns t.lookup_ns
