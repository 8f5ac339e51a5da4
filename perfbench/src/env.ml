let cores () = Cddpd_util.Parallel.ncpu ()

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* A branch ref lives loose under .git/refs or in .git/packed-refs. *)
let resolve_ref name =
  match read_file (Filename.concat ".git" name) with
  | Some hash -> Some (String.trim hash)
  | None -> (
      match read_file (Filename.concat ".git" "packed-refs") with
      | None -> None
      | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ hash; r ] when String.equal r name -> Some hash
                 | _ -> None))

let commit () =
  match read_file (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      let prefix = "ref: " in
      let plen = String.length prefix in
      if String.length head > plen && String.equal (String.sub head 0 plen) prefix
      then
        Option.value ~default:"unknown"
          (resolve_ref (String.sub head plen (String.length head - plen)))
      else head)

let layers =
  [ "sql"; "engine"; "storage"; "serve"; "core"; "graph"; "workload"; "util";
    "obs"; "catalog"; "experiments" ]

let non_blank_lines path =
  match read_file path with
  | None -> 0
  | Some text ->
      String.split_on_char '\n' text
      |> List.fold_left
           (fun n line -> if String.trim line = "" then n else n + 1)
           0

let loc layer =
  let dir = Filename.concat "lib" layer in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | files ->
      Some
        (Array.fold_left
           (fun n file ->
             if Filename.check_suffix file ".ml" || Filename.check_suffix file ".mli"
             then n + non_blank_lines (Filename.concat dir file)
             else n)
           0 files)

(* A memory-bound loop: one byte per cache line of a 16 MB buffer.  On a
   shared machine, neighbours' cache and memory traffic is what slows the
   benchmark; a register-only loop does not see it. *)
let reference_ms () =
  let buffer = Bytes.make (16 lsl 20) 'x' in
  let once () =
    let t0 = Clock.now_ns () in
    let acc = ref 0 in
    for i = 0 to (Bytes.length buffer / 64) - 1 do
      acc := !acc + Char.code (Bytes.unsafe_get buffer (i * 64))
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int (Clock.since_ns t0) /. 1e6
  in
  let samples = Pct.sorted (Array.init 40 (fun _ -> once ())) in
  (samples.(0), Pct.percentile samples 50.0)

let to_json ~jobs =
  let fastest, median = reference_ms () in
  Json.Obj
    [
      ("cores", Json.Int (cores ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (commit ()));
      ("domains_requested", Json.Int jobs);
      ( "loc",
        Json.Obj
          (List.filter_map
             (fun layer -> Option.map (fun n -> (layer, Json.Int n)) (loc layer))
             layers) );
      ( "reference_loop_ms",
        Json.Obj [ ("fastest", Json.Float fastest); ("median", Json.Float median) ] );
    ]
