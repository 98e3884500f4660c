type params = {
  n : int;
  n_tier1 : int;
  cities : int;
  seed : int64;
}

(* 18 % of non-tier-1 ASes are transit; a customer has 1.9 providers on
   average; a transit AS adds a peering link with probability 0.35; an
   AS pair has at most 8 parallel links. *)
let transit_fraction = 0.18
let mean_providers = 1.9
let peering_prob = 0.35
let max_parallel = 8

let default_params =
  {
    n = 12000;
    n_tier1 = 15;
    cities = 150;
    seed = 0x5C10AL;
  }

let small_params = { default_params with n = 1200; n_tier1 = 12; cities = 80 }

let draw_cities rng ~cities ~count =
  let chosen = Hashtbl.create count in
  while Hashtbl.length chosen < count do
    Hashtbl.replace chosen (Rng.int rng cities) ()
  done;
  let arr = Array.make count 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun c () ->
      arr.(!i) <- c;
      incr i)
    chosen;
  Array.sort compare arr;
  arr

let shared_cities a b =
  (* Both arrays are sorted. *)
  let na = Array.length a and nb = Array.length b in
  let rec go i j acc =
    if i >= na || j >= nb then acc
    else if a.(i) = b.(j) then go (i + 1) (j + 1) (acc + 1)
    else if a.(i) < b.(j) then go (i + 1) j acc
    else go i (j + 1) acc
  in
  go 0 0 0

let parallel_count a_cities b_cities =
  max 1 (min max_parallel (shared_cities a_cities b_cities))

let generate p =
  if p.n < p.n_tier1 then invalid_arg "Caida_like.generate: n < n_tier1";
  if p.n_tier1 < 2 then invalid_arg "Caida_like.generate: need at least 2 tier-1 ASes";
  let rng = Rng.create p.seed in
  let b = Graph.builder () in
  let cities_of = Array.make p.n [||] in
  let tier_of = Array.make p.n 3 in
  (* Preferential-attachment urn: an AS appears once per incident link. *)
  let urn = Array.make (16 * p.n) 0 in
  let urn_len = ref 0 in
  let urn_add v =
    if !urn_len < Array.length urn then begin
      urn.(!urn_len) <- v;
      incr urn_len
    end
  in
  let add_as i ~tier ~city_count =
    let cities = draw_cities rng ~cities:p.cities ~count:(min p.cities city_count) in
    cities_of.(i) <- cities;
    tier_of.(i) <- tier;
    let idx = Graph.add_as b ~tier ~cities (Id.ia 1 (i + 1)) in
    assert (idx = i)
  in
  (* Tier-1 clique. *)
  for i = 0 to p.n_tier1 - 1 do
    add_as i ~tier:1 ~city_count:(25 + Rng.int rng 36)
  done;
  for i = 0 to p.n_tier1 - 1 do
    for j = i + 1 to p.n_tier1 - 1 do
      let count = parallel_count cities_of.(i) cities_of.(j) in
      Graph.add_link b ~count ~rel:Graph.Peering i j;
      for _ = 1 to count do
        urn_add i;
        urn_add j
      done
    done
  done;
  (* Everyone else attaches to transit providers preferentially. *)
  let extra_provider_prob = max 0.0 (min 1.0 (mean_providers -. 1.0)) in
  for i = p.n_tier1 to p.n - 1 do
    let transit = Rng.float rng 1.0 < transit_fraction in
    let tier = if transit then 2 else 3 in
    let city_count =
      if transit then 4 + Rng.int rng 12 else 1 + Rng.int rng 2
    in
    add_as i ~tier ~city_count;
    let n_providers =
      1
      + (if Rng.float rng 1.0 < extra_provider_prob then 1 else 0)
      + if Rng.float rng 1.0 < extra_provider_prob /. 3.0 then 1 else 0
    in
    let chosen = Hashtbl.create 4 in
    let attempts = ref 0 in
    while Hashtbl.length chosen < n_providers && !attempts < 200 do
      incr attempts;
      let cand = urn.(Rng.int rng !urn_len) in
      if cand <> i && tier_of.(cand) <= 2 && not (Hashtbl.mem chosen cand) then
        Hashtbl.replace chosen cand ()
    done;
    if Hashtbl.length chosen = 0 then
      (* Extremely unlikely fallback: attach to a random tier-1. *)
      Hashtbl.replace chosen (Rng.int rng p.n_tier1) ();
    Hashtbl.iter
      (fun prov () ->
        let count = parallel_count cities_of.(prov) cities_of.(i) in
        Graph.add_link b ~count ~rel:Graph.Provider_customer prov i;
        for _ = 1 to count do
          urn_add prov;
          urn_add i
        done)
      chosen;
    (* Transit ASes sometimes add a peering link to another transit AS. *)
    if transit && Rng.float rng 1.0 < peering_prob then begin
      let attempts = ref 0 in
      let found = ref (-1) in
      while !found < 0 && !attempts < 50 do
        incr attempts;
        let cand = urn.(Rng.int rng !urn_len) in
        if cand <> i && tier_of.(cand) = 2 then found := cand
      done;
      if !found >= 0 then begin
        let count = parallel_count cities_of.(!found) cities_of.(i) in
        Graph.add_link b ~count ~rel:Graph.Peering !found i;
        for _ = 1 to count do
          urn_add !found;
          urn_add i
        done
      end
    end
  done;
  Graph.freeze b

let core_subset g ~k = Graph.prune_to_top_degree g k

let assign_isds g ~per_isd =
  if per_isd < 1 then invalid_arg "Caida_like.assign_isds: per_isd must be >= 1";
  Graph.map_as_info g (fun v info ->
      { info with Graph.ia = Id.ia ((v / per_isd) + 1) (v + 1) })

let cone_sizes g =
  let n = Graph.n g in
  let cones = Array.init n (fun _ -> Bitset.create n) in
  (* Customers always have a higher index than their providers (the
     generator attaches each new AS to existing providers), so reverse
     index order is a topological order of the p2c DAG. For graphs not
     built by [generate], fall back to iterating until fixpoint. *)
  for v = n - 1 downto 0 do
    Bitset.add cones.(v) v;
    List.iter
      (fun c -> Bitset.union_into ~dst:cones.(v) cones.(c))
      (Graph.customers g v)
  done;
  (* One fixpoint sweep to be safe for arbitrary DAG orderings. *)
  let changed = ref true in
  let guard = ref 0 in
  while !changed && !guard < 32 do
    changed := false;
    incr guard;
    for v = n - 1 downto 0 do
      let before = Bitset.cardinal cones.(v) in
      List.iter
        (fun c -> Bitset.union_into ~dst:cones.(v) cones.(c))
        (Graph.customers g v);
      if Bitset.cardinal cones.(v) <> before then changed := true
    done
  done;
  (cones, Array.map Bitset.cardinal cones)

let build_isd g ~n_core =
  let cones, sizes = cone_sizes g in
  let order = Array.init (Graph.n g) (fun i -> i) in
  Array.sort (fun a b -> compare (sizes.(b), a) (sizes.(a), b)) order;
  let core_old = Array.sub order 0 (min n_core (Graph.n g)) in
  let members = Bitset.create (Graph.n g) in
  Array.iter
    (fun c -> Bitset.union_into ~dst:members cones.(c))
    core_old;
  let keep = Bitset.to_list members in
  let sub, old_of_new = Graph.induced_subgraph g keep in
  let core_set = Hashtbl.create n_core in
  Array.iter (fun c -> Hashtbl.replace core_set c ()) core_old;
  let sub =
    Graph.map_as_info sub (fun ni info ->
        { info with Graph.core = Hashtbl.mem core_set old_of_new.(ni) })
  in
  (sub, old_of_new)
