(* The path selectors and the selection estimate as they stood before
   they became allocation-free: [Strategy]'s three selectors, with the
   sort through [by_latency], hash-table sets and boxed tuple keys, and
   [Traffic_sim]'s [selection_estimate] (here over an offered array
   instead of a simulation), and [Traffic_sim]'s selection over the
   live subset of an offered set. Kept as the oracle for
   [Strategy.select] and [Strategy.estimate]; do not optimise them. *)

type ctx = { latency_ms : float array; load : Link_load.t }

let path_latency ctx (p : Fwd_path.t) =
  Array.fold_left (fun acc l -> acc +. ctx.latency_ms.(l)) 0.0 p.links

(* Indices sorted by (latency, index) — the canonical preference order
   latency-greedy uses directly and the other strategies fall back
   to on ties. *)
let by_latency ctx offered =
  let lat = Array.map (path_latency ctx) offered in
  let order = Array.init (Array.length offered) Fun.id in
  Array.sort
    (fun a b ->
      let c = compare lat.(a) lat.(b) in
      if c <> 0 then c else compare a b)
    order;
  (order, lat)

let take_width width order =
  Array.sub order 0 (min width (Array.length order))

let select_latency ctx ~width offered =
  let order, _ = by_latency ctx offered in
  take_width width order

(* Greedy maximal link-disjointness: seed with the lowest-latency
   path, then repeatedly add the candidate sharing the fewest links
   with everything chosen so far (ties broken by latency, then
   index). Stops early only when the offered set runs out. *)
let select_diversity ctx ~width offered =
  let order, lat = by_latency ctx offered in
  let n = Array.length order in
  if n = 0 then [||]
  else begin
    let used = Hashtbl.create 16 in
    let mark i =
      Array.iter (fun l -> Hashtbl.replace used l ()) offered.(i).Fwd_path.links
    in
    let overlap i =
      Array.fold_left
        (fun acc l -> if Hashtbl.mem used l then acc + 1 else acc)
        0
        offered.(i).Fwd_path.links
    in
    let chosen = ref [ order.(0) ] in
    mark order.(0);
    let taken = Hashtbl.create 16 in
    Hashtbl.replace taken order.(0) ();
    while List.length !chosen < min width n do
      let best = ref (-1) and best_key = ref (max_int, infinity, max_int) in
      Array.iter
        (fun i ->
          if not (Hashtbl.mem taken i) then begin
            let key = (overlap i, lat.(i), i) in
            if key < !best_key then begin
              best_key := key;
              best := i
            end
          end)
        order;
      Hashtbl.replace taken !best ();
      mark !best;
      chosen := !best :: !chosen
    done;
    Array.of_list (List.rev !chosen)
  end

(* Maximise the rate a new subflow would actually get, the minimum of
   [capacity / (count + 1)] over its links, accounting for the load the
   already-chosen subflows of this same selection will add ([extra]).
   Congestion feedback enters through [Link_load]'s counts. *)
let select_adaptive ctx ~width offered =
  let n = Array.length offered in
  if n = 0 then [||]
  else begin
    let _, lat = by_latency ctx offered in
    let extra = Hashtbl.create 16 in
    let est i =
      Array.fold_left
        (fun acc l ->
          let bonus =
            match Hashtbl.find_opt extra l with Some k -> k | None -> 0
          in
          Float.min acc
            (Link_load.capacity_mbps ctx.load l
            /. float_of_int (Link_load.count ctx.load l + bonus + 1)))
        infinity
        offered.(i).Fwd_path.links
    in
    let taken = Hashtbl.create 16 in
    let chosen = ref [] in
    for _ = 1 to min width n do
      let best = ref (-1) and best_key = ref (neg_infinity, infinity, max_int) in
      for i = 0 to n - 1 do
        if not (Hashtbl.mem taken i) then begin
          (* higher estimate wins; ties prefer lower latency, then index *)
          let key = (est i, -.lat.(i), -i) in
          if
            !best < 0
            ||
            let e, l, j = !best_key in
            let e', l', j' = key in
            e' > e || (e' = e && (l' > l || (l' = l && j' > j)))
          then begin
            best_key := key;
            best := i
          end
        end
      done;
      Hashtbl.replace taken !best ();
      Array.iter
        (fun l ->
          let k =
            match Hashtbl.find_opt extra l with Some k -> k | None -> 0
          in
          Hashtbl.replace extra l (k + 1))
        offered.(!best).Fwd_path.links;
      chosen := !best :: !chosen
    done;
    Array.of_list (List.rev !chosen)
  end

let select t ctx ~width offered =
  if width < 1 then invalid_arg "Strategy.select: width < 1";
  if Array.length offered = 0 then [||]
  else
    match t with
    | Strategy.Latency_greedy -> select_latency ctx ~width offered
    | Strategy.Diversity_max -> select_diversity ctx ~width offered
    | Strategy.Load_adaptive -> select_adaptive ctx ~width offered

(* Selection over the usable paths as [Traffic_sim.select_alive] made
   it before [Strategy.select] took a usability test: copy the usable
   subset, select on the copy and map the indices back. With every
   offered path usable that subset is the offered set. *)
let select_usable t ctx ~usable ~width offered =
  let select = select t ctx ~width in
  if Array.for_all usable offered then select offered
  else begin
    let alive_idx = ref [] in
    Array.iteri
      (fun i p -> if usable p then alive_idx := i :: !alive_idx)
      offered;
    let alive_idx = Array.of_list (List.rev !alive_idx) in
    if Array.length alive_idx = 0 then [||]
    else
      let sel = select (Array.map (fun i -> offered.(i)) alive_idx) in
      Array.map (fun j -> alive_idx.(j)) sel
  end

(* Aggregate rate a selection would get, accounting for the load its
   own subflows add on shared links — the comparison metric for
   load-adaptive re-selection. *)
let selection_estimate load (offered : Fwd_path.t array) sel =
  let extra = Hashtbl.create 8 in
  let bonus l = match Hashtbl.find_opt extra l with Some k -> k | None -> 0 in
  Array.fold_left
    (fun total i ->
      let links = offered.(i).Fwd_path.links in
      let est =
        Array.fold_left
          (fun acc l ->
            Float.min acc
              (Link_load.capacity_mbps load l
              /. float_of_int (Link_load.count load l + bonus l + 1)))
          infinity links
      in
      Array.iter (fun l -> Hashtbl.replace extra l (bonus l + 1)) links;
      total +. est)
    0.0 sel
