type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let state t = t.state

let of_state s = { state = s }

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let skip t n =
  t.state <- Int64.add t.state (Int64.mul golden_gamma (Int64.of_int n))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bound is always far below 2^63 so
     the bias is negligible for simulation purposes, but we still mask to a
     non-negative value first. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let exponential t lambda =
  let u = 1.0 -. float t 1.0 in
  -.log u /. lambda

let pareto t ~alpha ~x_min =
  let u = 1.0 -. float t 1.0 in
  x_min /. (u ** (1.0 /. alpha))
