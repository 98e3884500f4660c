let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let sorted_copy xs =
  let c = Array.copy xs in
  Array.sort compare c;
  c

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let s = sorted_copy xs in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then s.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let fraction_le xs c =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let le =
      Array.fold_left (fun acc x -> if x <= c then acc + 1 else acc) 0 xs
    in
    float_of_int le /. float_of_int n
  end

type five_number = {
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
  mean : float;
}

let five_number xs =
  if Array.length xs = 0 then invalid_arg "Stats.five_number: empty sample";
  {
    min = quantile xs 0.0;
    p25 = quantile xs 0.25;
    median = quantile xs 0.5;
    p75 = quantile xs 0.75;
    max = quantile xs 1.0;
    mean = mean xs;
  }

let summary xs =
  if Array.length xs = 0 then "(empty)"
  else begin
    let f = five_number xs in
    Printf.sprintf "min=%.3g p25=%.3g med=%.3g p75=%.3g max=%.3g mean=%.3g"
      f.min f.p25 f.median f.p75 f.max f.mean
  end
