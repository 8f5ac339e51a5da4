module Obs = Cddpd_obs

(* Global across all pools (the observability layer reports process-wide
   totals); [stats] remains the per-pool view. *)
let m_hits = Obs.Registry.counter "buffer_pool.hits"
let m_misses = Obs.Registry.counter "buffer_pool.misses"
let m_evictions = Obs.Registry.counter "buffer_pool.evictions"
let m_write_backs = Obs.Registry.counter "buffer_pool.write_backs"
let m_scan_fetches = Obs.Registry.counter "buffer_pool.scan_fetches"
let m_readahead_pages = Obs.Registry.counter "buffer_pool.readahead_pages"

type frame = {
  index : int; (* position in [frames] *)
  mutable pid : int; (* -1 when the frame is empty *)
  buffer : Page.t;
  mutable pins : int;
  mutable dirty : bool;
  mutable referenced : bool; (* second-chance bit *)
}

type handle = frame

type t = {
  disk : Disk.t;
  frames : frame array;
  mutable table : int array;
      (* page table: frame index per page id, -1 when not resident.  Page
         ids are dense (Disk.allocate hands out 0, 1, 2, ...), so an array
         indexed by page id does a hash table's job; it grows on demand. *)
  mutable free : int list; (* indices of empty frames *)
  mutable hand : int; (* clock hand *)
  readahead : int; (* max pages prefetched per sequential miss; 0 = off *)
  (* One-entry memo: the frame returned by the most recent fetch.  Checking
     [last.pid = pid] is sound without any invalidation hook because
     [evict] resets [pid] to -1 before a frame is reused and [pid] is only
     ever set together with the matching [table] entry — so a matching
     pid proves the frame still holds that page. *)
  mutable last : frame;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  mutable scan_fetch_count : int;
  mutable readahead_count : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  scan_fetches : int;
  readahead_pages : int;
}

let default_readahead = 8

let create ?(capacity = 256) ?(readahead = default_readahead) disk =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity <= 0";
  if readahead < 0 then invalid_arg "Buffer_pool.create: readahead < 0";
  let make_frame index =
    { index; pid = -1; buffer = Page.create (); pins = 0; dirty = false; referenced = false }
  in
  let frames = Array.init capacity make_frame in
  {
    disk;
    frames;
    table = Array.make (max 64 (Disk.n_pages disk)) (-1);
    free = List.init capacity (fun i -> i);
    hand = 0;
    (* A prefetch batch must never be forced to evict its own leader, so
       leave headroom for the pinned leader plus one victim slot. *)
    readahead = min readahead (max 0 (capacity - 2));
    last = make_frame 0 (* dummy: pid = -1 never matches a real fetch *);
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    scan_fetch_count = 0;
    readahead_count = 0;
  }

let capacity t = Array.length t.frames

let frame_index t pid = if pid >= 0 && pid < Array.length t.table then t.table.(pid) else -1

let map_page t pid frame =
  let size = Array.length t.table in
  if pid >= size then begin
    let bigger = Array.make (max (pid + 1) (2 * size)) (-1) in
    Array.blit t.table 0 bigger 0 size;
    t.table <- bigger
  end;
  t.table.(pid) <- frame.index

let write_back t frame =
  if frame.dirty then begin
    Disk.write_from t.disk frame.pid frame.buffer;
    Obs.Counter.incr m_write_backs;
    frame.dirty <- false
  end

(* Clock (second-chance) sweep: advance the hand, clearing reference bits,
   until an unpinned, unreferenced frame is found.  Amortised O(1) per
   miss.  Two full sweeps guarantee we revisit every frame after clearing
   its reference bit; only pins can then keep a frame unavailable. *)
let clock_sweep t =
  let n = Array.length t.frames in
  let rec sweep remaining =
    if remaining = 0 then failwith "Buffer_pool: all frames are pinned"
    else begin
      let frame = t.frames.(t.hand) in
      t.hand <- (t.hand + 1) mod n;
      if frame.pins > 0 then sweep (remaining - 1)
      else if frame.referenced then begin
        frame.referenced <- false;
        sweep (remaining - 1)
      end
      else frame
    end
  in
  sweep (2 * n)

let victim t =
  match t.free with
  | i :: rest ->
      t.free <- rest;
      t.frames.(i)
  | [] -> clock_sweep t

(* Scan-resistant victim selection for sequential loads: take a free frame
   or an already-unreferenced unpinned frame, but never clear reference
   bits while searching.  Because sequential fetches leave their own
   frames unreferenced, a scan recycles its own trail of frames instead of
   demoting (and eventually flushing) the referenced working set.  If one
   full revolution finds nothing (everything referenced or pinned), fall
   back to the normal clearing sweep so the fetch still terminates. *)
let seq_victim t =
  match t.free with
  | i :: rest ->
      t.free <- rest;
      t.frames.(i)
  | [] ->
      let n = Array.length t.frames in
      let rec sweep remaining =
        if remaining = 0 then clock_sweep t
        else begin
          let frame = t.frames.(t.hand) in
          t.hand <- (t.hand + 1) mod n;
          if frame.pins = 0 && not frame.referenced then frame
          else sweep (remaining - 1)
        end
      in
      sweep n

let evict t frame =
  if frame.pid <> -1 then begin
    write_back t frame;
    t.table.(frame.pid) <- -1;
    frame.pid <- -1;
    t.eviction_count <- t.eviction_count + 1;
    Obs.Counter.incr m_evictions
  end

let record_hit t frame =
  t.hit_count <- t.hit_count + 1;
  Obs.Counter.incr m_hits;
  frame.pins <- frame.pins + 1

let fetch t pid =
  let last = t.last in
  if last.pid = pid then begin
    record_hit t last;
    last.referenced <- true;
    last
  end
  else
    let frame =
      let i = frame_index t pid in
      if i >= 0 then begin
        let frame = t.frames.(i) in
        record_hit t frame;
        frame.referenced <- true;
        frame
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        Obs.Counter.incr m_misses;
        let frame = victim t in
        evict t frame;
        Disk.read_into t.disk pid frame.buffer;
        frame.pid <- pid;
        frame.pins <- 1;
        frame.dirty <- false;
        frame.referenced <- true;
        map_page t pid frame;
        frame
      end
    in
    t.last <- frame;
    frame

(* Prefetch the next non-resident pages of [run] into unpinned,
   unreferenced frames (first in line for recycling), reading them from
   disk in one batch.  Called with the leader frame pinned, so the batch
   cannot evict it.  A batch never evicts its own pages: when the victim
   search comes back to a frame this batch filled, every other recyclable
   frame is taken, so the batch stops there and leaves that frame alone
   rather than read a page it would throw away before the scan reaches
   it.  Correctness and logical-I/O accounting never depend on how far a
   batch got: a page it did not prefetch is a regular miss later. *)
let readahead_batch t ~run ~pos =
  let stop = min (Array.length run - 1) (pos + t.readahead) in
  let rec fill j batch =
    if j > stop then batch
    else
      let pid = run.(j) in
      if frame_index t pid >= 0 then fill (j + 1) batch
      else
        let frame = seq_victim t in
        if List.exists (fun (_, filled) -> filled == frame) batch then batch
        else begin
          evict t frame;
          frame.pid <- pid;
          frame.pins <- 0;
          frame.dirty <- false;
          frame.referenced <- false;
          map_page t pid frame;
          t.readahead_count <- t.readahead_count + 1;
          Obs.Counter.incr m_readahead_pages;
          fill (j + 1) ((pid, frame) :: batch)
        end
  in
  match fill (pos + 1) [] with
  | [] -> ()
  | batch ->
      Disk.read_batch t.disk (List.rev_map (fun (pid, frame) -> (pid, frame.buffer)) batch)

let fetch_sequential t ~run ~pos =
  let pid = run.(pos) in
  t.scan_fetch_count <- t.scan_fetch_count + 1;
  Obs.Counter.incr m_scan_fetches;
  let last = t.last in
  if last.pid = pid then begin
    record_hit t last;
    (* scan fetches never set the reference bit *)
    last
  end
  else
    let frame =
      let i = frame_index t pid in
      if i >= 0 then begin
        let frame = t.frames.(i) in
        record_hit t frame;
        frame
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        Obs.Counter.incr m_misses;
        let frame = seq_victim t in
        evict t frame;
        Disk.read_into t.disk pid frame.buffer;
        frame.pid <- pid;
        frame.pins <- 1;
        frame.dirty <- false;
        frame.referenced <- false;
        map_page t pid frame;
        if t.readahead > 0 then readahead_batch t ~run ~pos;
        frame
      end
    in
    t.last <- frame;
    frame

let allocate t =
  let pid = Disk.allocate t.disk in
  let frame = victim t in
  evict t frame;
  Page.zero frame.buffer;
  frame.pid <- pid;
  frame.pins <- 1;
  frame.dirty <- true;
  frame.referenced <- true;
  map_page t pid frame;
  t.last <- frame;
  frame

let page frame = frame.buffer

let page_id frame = frame.pid

let mark_dirty frame = frame.dirty <- true

let unpin _t frame =
  if frame.pins <= 0 then invalid_arg "Buffer_pool.unpin: handle not pinned";
  frame.pins <- frame.pins - 1

let flush_all t =
  Array.iter (fun frame -> if frame.pid <> -1 then write_back t frame) t.frames

let drop_cache t =
  Array.iteri
    (fun i frame ->
      if frame.pins > 0 then failwith "Buffer_pool.drop_cache: frame still pinned";
      if frame.pid <> -1 then begin
        write_back t frame;
        t.table.(frame.pid) <- -1;
        frame.pid <- -1;
        t.free <- i :: t.free
      end)
    t.frames

let stats t =
  {
    hits = t.hit_count;
    misses = t.miss_count;
    evictions = t.eviction_count;
    scan_fetches = t.scan_fetch_count;
    readahead_pages = t.readahead_count;
  }

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0;
  t.eviction_count <- 0;
  t.scan_fetch_count <- 0;
  t.readahead_count <- 0
