(* A monotonic nanosecond clock.  [Unix.gettimeofday] has microsecond
   resolution, and a drift-heavy statement takes about 3 us: its median
   flipped between 3.1 and 4.1 us from rounding alone. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since_ns t0 = now_ns () - t0

let s_of_ns ns = float_of_int ns *. 1e-9

let time f =
  let t0 = now_ns () in
  let result = f () in
  (result, s_of_ns (since_ns t0))
