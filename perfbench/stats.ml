(* Order statistics over integer samples. *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a = percentile (sorted_copy a) 50.

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median_float: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail percentile reported for [n] samples: the highest rung of this
   ladder that leaves at least ten samples beyond its nearest rank. Rungs
   are in hundredths of a percent, so the rule is exact integer arithmetic. *)
let ladder = [ 9999; 9995; 9990; 9950; 9900; 9800; 9500; 9000; 8000; 7500; 5000 ]

let tail_percentile n =
  let beyond p = n - (((p * n) + 9999) / 10000) in
  match List.find_opt (fun p -> beyond p >= 10) ladder with
  | Some p -> float_of_int p /. 100.
  | None -> 50.
