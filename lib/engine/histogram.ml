type bucket = {
  lo : int; (* smallest value in the bucket *)
  hi : int; (* largest value in the bucket *)
  count : int; (* rows in the bucket *)
  distinct : int; (* distinct values in the bucket *)
}

type t = { total : int; total_distinct : int; buckets : bucket array }

let of_sorted ?(buckets = 64) ~n sorted =
  if buckets <= 0 then invalid_arg "Histogram.of_sorted: buckets <= 0";
  if n < 0 || n > Array.length sorted then invalid_arg "Histogram.of_sorted: n out of range";
  if n = 0 then { total = 0; total_distinct = 0; buckets = [||] }
  else begin
    let per_bucket = max 1 ((n + buckets - 1) / buckets) in
    let out = ref [] in
    let total_distinct = ref 0 in
    let i = ref 0 in
    while !i < n do
      let start = !i in
      let stop = min n (start + per_bucket) in
      (* Extend the bucket so equal values never straddle a boundary. *)
      let stop = ref stop in
      while !stop < n && sorted.(!stop) = sorted.(!stop - 1) do
        incr stop
      done;
      let stop = !stop in
      let distinct = ref 1 in
      for j = start + 1 to stop - 1 do
        if sorted.(j) <> sorted.(j - 1) then incr distinct
      done;
      total_distinct := !total_distinct + !distinct;
      out :=
        { lo = sorted.(start); hi = sorted.(stop - 1); count = stop - start; distinct = !distinct }
        :: !out;
      i := stop
    done;
    { total = n; total_distinct = !total_distinct; buckets = Array.of_list (List.rev !out) }
  end

let build ?(buckets = 64) values =
  if buckets <= 0 then invalid_arg "Histogram.build: buckets <= 0";
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  of_sorted ~buckets ~n:(Array.length sorted) sorted

let n_values t = t.total

let n_distinct t = t.total_distinct

let fingerprint t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "h:%d:%d" t.total t.total_distinct);
  Array.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf ";%d,%d,%d,%d" b.lo b.hi b.count b.distinct))
    t.buckets;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let min_value t =
  if Array.length t.buckets = 0 then None else Some t.buckets.(0).lo

let max_value t =
  let n = Array.length t.buckets in
  if n = 0 then None else Some t.buckets.(n - 1).hi

let selectivity_eq t v =
  if t.total = 0 then 0.0
  else
    let matching =
      Array.fold_left
        (fun acc b ->
          if v >= b.lo && v <= b.hi then
            acc +. (float_of_int b.count /. float_of_int (max 1 b.distinct))
          else acc)
        0.0 t.buckets
    in
    let sel = matching /. float_of_int t.total in
    (* Never report exactly zero for an in-range probe: the optimizer should
       not believe lookups are free. *)
    if sel <= 0.0 then 0.5 /. float_of_int t.total else min 1.0 sel

(* Fraction of bucket [b] that intersects [lo, hi], assuming values spread
   uniformly over [b.lo, b.hi]. *)
let bucket_overlap b ~lo ~hi =
  let b_lo = float_of_int b.lo and b_hi = float_of_int b.hi in
  let lo = match lo with None -> b_lo | Some v -> float_of_int v in
  let hi = match hi with None -> b_hi | Some v -> float_of_int v in
  if hi < b_lo || lo > b_hi then 0.0
  else if Float.equal b_hi b_lo then 1.0
  else
    let clamped_lo = max lo b_lo and clamped_hi = min hi b_hi in
    (clamped_hi -. clamped_lo) /. (b_hi -. b_lo)

let selectivity_range t ~lo ~hi =
  if t.total = 0 then 0.0
  else begin
    (match (lo, hi) with
    | Some l, Some h when l > h -> invalid_arg "Histogram.selectivity_range: lo > hi"
    | _ -> ());
    let matching =
      Array.fold_left
        (fun acc b -> acc +. (bucket_overlap b ~lo ~hi *. float_of_int b.count))
        0.0 t.buckets
    in
    Float.max 0.0 (Float.min 1.0 (matching /. float_of_int t.total))
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>histogram: %d values, %d distinct@," t.total t.total_distinct;
  Array.iter
    (fun b ->
      Format.fprintf ppf "  [%d, %d] count=%d distinct=%d@," b.lo b.hi b.count b.distinct)
    t.buckets;
  Format.fprintf ppf "@]"
