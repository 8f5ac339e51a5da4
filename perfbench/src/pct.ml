let sorted samples =
  let copy = Array.copy samples in
  Array.sort Float.compare copy;
  copy

(* The epsilon keeps p * n / 100 from rounding up past an exact integer,
   e.g. 99% of 1000 must be rank 990, not 991. *)
let rank ~n p =
  let exact = p *. float_of_int n /. 100.0 in
  max 1 (min n (int_of_float (Float.ceil (exact -. 1e-9))))

let above ~n p = n - rank ~n p

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(rank ~n p - 1)

let median samples = percentile (sorted samples) 50.0

let position_minima = function
  | [] -> invalid_arg "Pct.position_minima: no samples"
  | first :: rest ->
      let n = Array.length first in
      if List.exists (fun r -> Array.length r <> n) rest then
        invalid_arg "Pct.position_minima: unequal lengths";
      Array.init n (fun i ->
          List.fold_left (fun m r -> Float.min m r.(i)) first.(i) rest)

let ladder = [ 50.0; 90.0; 99.0; 99.9; 99.99 ]

let highest_supported ?(min_above = 10) n =
  List.fold_left
    (fun best p -> if n > 0 && above ~n p >= min_above then Some p else best)
    None ladder
