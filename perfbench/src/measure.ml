let min_setups = 7

let min_replays = 5

let repeat_for ?(after_first = ignore) ?(min_calls = 1) ~seconds f =
  let t0 = Clock.now_ns () in
  let first = f () in
  after_first ();
  let rec loop calls acc =
    if calls < min_calls || Clock.s_of_ns (Clock.since_ns t0) < seconds then
      loop (calls + 1) (f () :: acc)
    else List.rev acc
  in
  first :: loop 1 []

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let ratio num den = if den = 0.0 then 0.0 else num /. den

let rec span_sum select ~parent spans =
  List.fold_left
    (fun (total, calls) span ->
      let name = Cddpd_obs.Span.name span in
      if select ~parent name then
        (total +. Cddpd_obs.Span.total_s span, calls + Cddpd_obs.Span.calls span)
      else
        let t, c =
          span_sum select ~parent:(Some name) (Cddpd_obs.Span.children span)
        in
        (total +. t, calls + c))
    (0.0, 0) spans

let named wanted ~parent:_ name = String.equal name wanted
