let within_blocks ~seed ~block ?(fixed = fun _ -> false) items =
  if block < 1 then invalid_arg "Shuffle.within_blocks: block < 1";
  let rng = Cddpd_util.Rng.create seed in
  let out = Array.copy items in
  let n = Array.length out in
  (* Fisher-Yates over out.(lo .. hi-1). *)
  let shuffle lo hi =
    for i = hi - 1 downto lo + 1 do
      let j = lo + Cddpd_util.Rng.int rng (i - lo + 1) in
      let x = out.(i) in
      out.(i) <- out.(j);
      out.(j) <- x
    done
  in
  let rec blocks lo =
    if lo < n then begin
      let hi = min n (lo + block) in
      let run = ref lo in
      for i = lo to hi - 1 do
        if fixed out.(i) then begin
          shuffle !run i;
          run := i + 1
        end
      done;
      shuffle !run hi;
      blocks hi
    end
  in
  blocks 0;
  out
