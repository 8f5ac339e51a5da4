(* Slotted page layout:
     0  u16  slot count
     2  u16  free_end: offset one past the free region; record data occupies
             [free_end - data, Page.size) growing downward
     4  slot directory: per slot, u16 record offset + u16 record length
             (length 0 marks a deleted slot)
   A fresh page has slot count 0 and free_end = Page.size. *)

type t = {
  pool : Buffer_pool.t;
  mutable pages : int list; (* reversed: head is the last page *)
  mutable page_count : int;
  mutable live : int;
}

type rid = { page : int; slot : int }

let pp_rid ppf rid = Format.fprintf ppf "%d:%d" rid.page rid.slot

let compare_rid a b =
  let c = compare a.page b.page in
  if c <> 0 then c else compare a.slot b.slot

let header_size = 4
let slot_size = 4

let create pool = { pool; pages = []; page_count = 0; live = 0 }

let slot_count page = Page.get_u16 page 0
let set_slot_count page n = Page.set_u16 page 0 n
let free_end page = Page.get_u16 page 2
let set_free_end page v = Page.set_u16 page 2 v

let slot_offset page i = Page.get_u16 page (header_size + (i * slot_size))
let slot_length page i = Page.get_u16 page (header_size + (i * slot_size) + 2)

let set_slot page i ~offset ~length =
  Page.set_u16 page (header_size + (i * slot_size)) offset;
  Page.set_u16 page (header_size + (i * slot_size) + 2) length

let free_space page =
  let slots_end = header_size + (slot_count page * slot_size) in
  free_end page - slots_end

let init_page page =
  set_slot_count page 0;
  set_free_end page Page.size

let max_record = Page.size - header_size - slot_size

let try_insert_in page data =
  let len = Bytes.length data in
  if free_space page < len + slot_size then None
  else begin
    let offset = free_end page - len in
    Page.set_bytes page ~pos:offset data;
    let slot = slot_count page in
    set_slot page slot ~offset ~length:len;
    set_slot_count page (slot + 1);
    set_free_end page offset;
    Some slot
  end

let insert t tuple =
  let data = Tuple.encode tuple in
  if Bytes.length data > max_record then
    invalid_arg "Heap_file.insert: tuple larger than a page";
  let insert_in_new_page () =
    let handle = Buffer_pool.allocate t.pool in
    let page = Buffer_pool.page handle in
    init_page page;
    let pid = Buffer_pool.page_id handle in
    t.pages <- pid :: t.pages;
    t.page_count <- t.page_count + 1;
    let slot =
      match try_insert_in page data with
      | Some slot -> slot
      | None -> assert false
    in
    Buffer_pool.mark_dirty handle;
    Buffer_pool.unpin t.pool handle;
    { page = pid; slot }
  in
  let rid =
    match t.pages with
    | [] -> insert_in_new_page ()
    | last :: _ -> (
        let handle = Buffer_pool.fetch t.pool last in
        let page = Buffer_pool.page handle in
        match try_insert_in page data with
        | Some slot ->
            Buffer_pool.mark_dirty handle;
            Buffer_pool.unpin t.pool handle;
            { page = last; slot }
        | None ->
            Buffer_pool.unpin t.pool handle;
            insert_in_new_page ())
  in
  t.live <- t.live + 1;
  rid

let with_page t pid f =
  let handle = Buffer_pool.fetch t.pool pid in
  let result =
    try f handle (Buffer_pool.page handle)
    with exn ->
      Buffer_pool.unpin t.pool handle;
      raise exn
  in
  Buffer_pool.unpin t.pool handle;
  result

let fetch t rid =
  let check_slot page =
    if rid.slot < 0 || rid.slot >= slot_count page then
      invalid_arg "Heap_file.fetch: slot out of range"
  in
  with_page t rid.page (fun _handle page ->
      check_slot page;
      let len = slot_length page rid.slot in
      if len = 0 then None
      else
        let data = Page.get_bytes page ~pos:(slot_offset page rid.slot) ~len in
        Some (Tuple.decode data))

let delete t rid =
  with_page t rid.page (fun handle page ->
      if rid.slot < 0 || rid.slot >= slot_count page then
        invalid_arg "Heap_file.delete: slot out of range";
      let len = slot_length page rid.slot in
      if len = 0 then false
      else begin
        set_slot page rid.slot ~offset:0 ~length:0;
        Buffer_pool.mark_dirty handle;
        t.live <- t.live - 1;
        true
      end)

(* Full scans materialize the page run once (oldest first) and go through
   the pool's sequential path: scan-resistant eviction plus readahead, no
   per-page allocation beyond the run array itself. *)
let scan_run t =
  let n = t.page_count in
  let run = Array.make n (-1) in
  let i = ref (n - 1) in
  List.iter
    (fun pid ->
      run.(!i) <- pid;
      decr i)
    t.pages;
  run

let scan_pages t f =
  let run = scan_run t in
  Array.iteri
    (fun pos pid ->
      let handle = Buffer_pool.fetch_sequential t.pool ~run ~pos in
      let finish () = Buffer_pool.unpin t.pool handle in
      (try f pid (Buffer_pool.page handle)
       with exn ->
         finish ();
         raise exn);
      finish ())
    run

(* The slot directory is validated once per page, so the per-slot reads
   below go straight to the page bytes instead of through [Page.get_u16]'s
   per-read check. *)
let iter_slices t f =
  scan_pages t (fun pid page ->
      let n = slot_count page in
      if header_size + (n * slot_size) > Page.size then
        invalid_arg "Heap_file: slot directory overruns the page";
      let buf = Page.to_bytes page in
      for slot = 0 to n - 1 do
        let dir = header_size + (slot * slot_size) in
        if Bytes.get_uint16_le buf (dir + 2) > 0 then
          f ~page:pid ~slot buf (Bytes.get_uint16_le buf dir)
      done)

let iter t f =
  iter_slices t (fun ~page ~slot buf base -> f { page; slot } (Tuple.decode_at buf ~base))

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun rid tuple -> acc := f !acc rid tuple);
  !acc

let n_tuples t = t.live

let n_pages t = t.page_count
