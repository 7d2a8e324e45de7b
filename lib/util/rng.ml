type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next_int64 t }
let copy t = { state = t.state }

(* Top 62 bits as a non-negative OCaml int. *)
let next_nonneg t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias on pathological bounds. *)
  let max_int62 = (1 lsl 62) - 1 in
  let limit = max_int62 - (max_int62 mod bound) in
  let rec draw () =
    let v = next_nonneg t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 uniform mantissa bits. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let distinct n draw =
  let chosen = Array.make n 0 in
  let rec taken v i = i > 0 && (chosen.(i - 1) = v || taken v (i - 1)) in
  let filled = ref 0 in
  while !filled < n do
    match draw !filled with
    | Some v when not (taken v !filled) ->
        chosen.(!filled) <- v;
        incr filled
    | _ -> ()
  done;
  chosen

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
