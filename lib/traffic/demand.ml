type params = {
  n_pairs : int;
  flows : int;
  mean_size_mbit : float;
  pareto_alpha : float;
  horizon_s : float;
  seed : int64;
}

let default_params =
  {
    n_pairs = 200;
    flows = 10_000;
    mean_size_mbit = 40.0;
    pareto_alpha = 1.5;
    horizon_s = 3600.0;
    seed = 0x7AF1CL;
  }

(* Zipf exponents: popularity across pairs, population across degree
   ranks. *)
let pair_zipf_s = 1.1
let pop_zipf_s = 1.0

type flow_spec = { arrival_s : float; size_mbit : float; pair : int }

type t = {
  params : params;
  pairs : (int * int) array;
  pair_zipf : Zipf.t;
  sorted : flow_spec array;  (** every flow, in admission order *)
}

let validate g p =
  if Graph.n g < 2 then invalid_arg "Demand.create: graph has fewer than 2 ASes";
  if p.n_pairs <= 0 then invalid_arg "Demand.create: n_pairs <= 0";
  if p.flows < 0 then invalid_arg "Demand.create: flows < 0";
  if p.mean_size_mbit <= 0.0 then invalid_arg "Demand.create: mean_size_mbit <= 0";
  if p.pareto_alpha <= 1.0 then invalid_arg "Demand.create: pareto_alpha <= 1";
  if p.horizon_s <= 0.0 then invalid_arg "Demand.create: horizon_s <= 0"

(* ASes sorted by descending degree (ties by index) give the rank
   order both Zipf laws are expressed over. *)
let degree_ranking g =
  let n = Graph.n g in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = compare (Graph.as_degree g b) (Graph.as_degree g a) in
      if c <> 0 then c else compare a b)
    order;
  order

(* Flow [i]'s attributes, a pure function of [(seed, i)]. Pareto sizes
   with the requested mean: x_min = mean * (alpha-1) / alpha. *)
let spec p pair_zipf i =
  let rng = Rng.create (Runner.job_seed p.seed i) in
  let arrival_s = Rng.float rng p.horizon_s in
  let pair = Zipf.sample pair_zipf rng in
  let x_min = p.mean_size_mbit *. (p.pareto_alpha -. 1.0) /. p.pareto_alpha in
  let size_mbit = Rng.pareto rng ~alpha:p.pareto_alpha ~x_min in
  { arrival_s; size_mbit; pair }

(* A stable bucket sort on a monotone key: bucket [floor (a * n / h)]
   never decreases as arrival [a] grows (rounding is monotone), so a
   flow in an earlier bucket arrives strictly earlier. Flows are dealt
   into buckets in index order, then an insertion pass moves each one
   only past strictly later arrivals, which all share its bucket: ties
   keep flow-index order. Arrivals are uniform on the horizon, so a
   bucket holds one flow on average and the sort takes linear expected
   time. *)
let arrival_order p pair_zipf =
  let n = p.flows in
  let specs = Array.init n (spec p pair_zipf) in
  let arrival = Array.map (fun s -> s.arrival_s) specs in
  let scale = float_of_int n /. p.horizon_s in
  let bucket a = min (n - 1) (int_of_float (a *. scale)) in
  (* [next.(b)]: the next free slot of bucket [b]. *)
  let next = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let b = bucket arrival.(i) + 1 in
    next.(b) <- next.(b) + 1
  done;
  for b = 1 to n do
    next.(b) <- next.(b) + next.(b - 1)
  done;
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = bucket arrival.(i) in
    order.(next.(b)) <- i;
    next.(b) <- next.(b) + 1
  done;
  for k = 1 to n - 1 do
    let i = order.(k) in
    let a = arrival.(i) in
    let j = ref (k - 1) in
    while !j >= 0 && arrival.(order.(!j)) > a do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- i
  done;
  Array.map (fun i -> specs.(i)) order

let create g p =
  validate g p;
  let n = Graph.n g in
  let as_of_rank = degree_ranking g in
  let pop_zipf = Zipf.create ~n ~s:pop_zipf_s in
  let dst_zipf = Zipf.create ~n ~s:(pop_zipf_s +. 0.2) in
  (* Endpoint pairs: sources drawn from the population law, popular
     destinations from a slightly heavier one. Rejects self-pairs and
     duplicates; the attempt budget keeps pathological tiny graphs
     from looping forever. *)
  let rng = Rng.create p.seed in
  let seen = Hashtbl.create p.n_pairs in
  let acc = ref [] in
  let found = ref 0 in
  let attempts = ref 0 in
  let max_attempts = p.n_pairs * 100 in
  while !found < p.n_pairs && !attempts < max_attempts do
    incr attempts;
    let src = as_of_rank.(Zipf.sample pop_zipf rng) in
    let dst = as_of_rank.(Zipf.sample dst_zipf rng) in
    if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
      Hashtbl.replace seen (src, dst) ();
      acc := (src, dst) :: !acc;
      incr found
    end
  done;
  let pairs = Array.of_list (List.rev !acc) in
  if Array.length pairs = 0 then invalid_arg "Demand.create: no usable pair";
  let pair_zipf = Zipf.create ~n:(Array.length pairs) ~s:pair_zipf_s in
  { params = p; pairs; pair_zipf; sorted = arrival_order p pair_zipf }

let params t = t.params

let pairs t = t.pairs

let sorted_flows t = t.sorted

let config_key t =
  let p = t.params in
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "demand:%d/%d/%h/%h/%h/%Ld;" p.n_pairs p.flows p.mean_size_mbit
    p.pareto_alpha p.horizon_s p.seed;
  Array.iter (fun (s, d) -> add "%d-%d;" s d) t.pairs;
  Buffer.contents b
