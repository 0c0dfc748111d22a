(* Summary statistics of measured samples. A percentile is reported only
   when at least [min_beyond] samples lie beyond it, so a tail figure is
   never read off a handful of outliers. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank: the ceil (p n)-th smallest sample *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  if k < 1 || n - k < min_beyond then None else Some a.(k - 1)

(* First and third quartiles as Python's statistics.quantiles (n=4) gives
   them (the default "exclusive" method). *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Sample.quartiles: fewer than two samples";
  let q i =
    let m = (n + 1) * i in
    let j = max 1 (min (n - 1) (m / 4)) in
    let delta = float_of_int (m - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (q 1, q 3)

(* interquartile distance as a share of the median *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs
