(* A deterministic pseudo-random value in [0, 1) per integer key: the
   first draw of the generator seeded with the key. *)
let unit_float x = Rng.float (Rng.create (Int64.of_int x)) 1.0

let city_position c =
  (10_000.0 *. unit_float (2 * c), 10_000.0 *. unit_float ((2 * c) + 1))

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
    2.0 *. unit_float (0x11 + l)
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
