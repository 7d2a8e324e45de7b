(* Order statistics for reporting repeated measurements. The quartiles
   follow Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method) so spreads printed here match spreads computed over
   the emitted JSON with the standard library. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Summary.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. q2

(* Nearest rank of the [p]th percentile among [n] samples; the epsilon
   keeps [99.9 * 10000 / 100] from rounding up past 9990. *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || p <= 0. || p > 100. then invalid_arg "Summary.percentile";
  a.(max 1 (rank n p) - 1)

let candidate_percentiles = [ 99.9; 99.; 95.; 90.; 50. ]

let beyond n p = n - rank n p

(* The highest percentile a sample of size [n] supports: at least ten
   samples must lie beyond it, or the tail it describes is a handful of
   outliers. [None] when even the median has fewer than ten beyond it. *)
let reportable_percentile n =
  List.find_opt (fun p -> beyond n p >= 10) candidate_percentiles
