(* [data.(0 .. len - 1)] ascending; the tail is spare capacity. *)
type t = { mutable data : int array; mutable len : int }

let of_unsorted data =
  Array.sort Int.compare data;
  { data; len = Array.length data }

let to_array t = Array.sub t.data 0 t.len

let histogram t = Histogram.of_sorted ~n:t.len t.data

(* First index in [lo, hi) whose value is >= v ([strict]: > v), else hi. *)
let search (data : int array) ~lo ~hi ~strict (v : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if data.(mid) < v || (strict && data.(mid) = v) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Forward compaction: each removed value is found by binary search past
   the previous one, and the run of kept values before it slides left in
   one blit. *)
let remove_sorted t removed =
  if Array.length removed > 0 then begin
    let data = t.data in
    let read = ref 0 and write = ref 0 in
    Array.iter
      (fun v ->
        let pos = search data ~lo:!read ~hi:t.len ~strict:false v in
        if pos >= t.len || data.(pos) <> v then
          invalid_arg "Sorted_column.patch: removed value not held";
        let run = pos - !read in
        Array.blit data !read data !write run;
        write := !write + run;
        read := pos + 1)
      removed;
    let run = t.len - !read in
    Array.blit data !read data !write run;
    t.len <- !write + run
  end

(* Backward merge: from the largest added value down, the run of held
   values above it slides right in one blit and the value drops into the
   gap left behind. *)
let insert_sorted t added =
  let k = Array.length added in
  if k > 0 then begin
    let len = t.len + k in
    if len > Array.length t.data then begin
      let grown = Array.make (max len (Array.length t.data * 3 / 2)) 0 in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    let data = t.data in
    let src = ref t.len and dst = ref len in
    for q = k - 1 downto 0 do
      let v = added.(q) in
      let pos = search data ~lo:0 ~hi:!src ~strict:true v in
      let run = !src - pos in
      Array.blit data pos data (!dst - run) run;
      dst := !dst - run - 1;
      data.(!dst) <- v;
      src := pos
    done;
    t.len <- len
  end

let patch t ~removed ~added =
  Array.sort Int.compare removed;
  Array.sort Int.compare added;
  remove_sorted t removed;
  insert_sorted t added
