(* SplitMix-style integer hash for deterministic pseudo-geography. *)
let hash64 x =
  let open Int64 in
  let z = add (of_int x) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let city_position c =
  let h1 = hash64 (2 * c) and h2 = hash64 ((2 * c) + 1) in
  (10_000.0 *. unit_float h1, 10_000.0 *. unit_float h2)

let shares_city a b =
  Array.exists (fun c -> Array.exists (fun c' -> c = c') b) a

let representative cities fallback =
  if Array.length cities = 0 then fallback else cities.(0)

let link_latency_ms g l =
  let lk = Graph.link g l in
  let ia = (Graph.as_info g lk.Graph.a).Graph.cities in
  let ib = (Graph.as_info g lk.Graph.b).Graph.cities in
  let base = 1.0 in
  let spread =
    (* Parallel links land in different cities: a deterministic 0-2 ms
       per-link spread keeps them distinguishable. *)
    2.0 *. unit_float (hash64 (0x11 + l))
  in
  if Array.length ia > 0 && Array.length ib > 0 && shares_city ia ib then
    base +. spread
  else begin
    let ca = representative ia (lk.Graph.a * 7919) in
    let cb = representative ib (lk.Graph.b * 7919) in
    let xa, ya = city_position ca and xb, yb = city_position cb in
    let km = sqrt (((xa -. xb) ** 2.0) +. ((ya -. yb) ** 2.0)) in
    base +. spread +. (km /. 200.0)
  end

let latency_table g = Array.init (Graph.num_links g) (link_latency_ms g)
