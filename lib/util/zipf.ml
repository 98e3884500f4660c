type t = { cumulative : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0. then invalid_arg "Zipf.create: s must be non-negative";
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cumulative.(k) <- !acc
  done;
  let total = !acc in
  for k = 0 to n - 1 do
    cumulative.(k) <- cumulative.(k) /. total
  done;
  { cumulative }

let sample t rng =
  let u = Rng.float rng 1.0 in
  (* Smallest index whose cumulative weight exceeds u. *)
  let lo = ref 0 and hi = ref (Array.length t.cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cumulative.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
