type t = Latency_greedy | Diversity_max | Load_adaptive

let all = [ Latency_greedy; Diversity_max; Load_adaptive ]

let name = function
  | Latency_greedy -> "latency-greedy"
  | Diversity_max -> "diversity-max"
  | Load_adaptive -> "load-adaptive"

let of_string s =
  match List.find_opt (fun t -> name t = s) all with
  | Some t -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown strategy %S (expected %s)" s
           (String.concat ", " (List.map name all)))

(* Besides the inputs, a context holds the scratch every selection
   reuses, so selecting allocates only its result. Each simulation owns
   its context: simulations on separate domains share no scratch. The
   load's capacity and count arrays are read in place: a float returned
   by a call into [Link_load] would be boxed. *)
type ctx = {
  latency_ms : float array;
  capacity : float array;
  counts : int array;
  bonus : int array;
      (* per link: subflows the selection being built adds; all zero
         between calls *)
  mutable taken : Bytes.t;  (* per offered index: already chosen *)
}

let ctx ~latency_ms load =
  {
    latency_ms;
    capacity = Link_load.capacities load;
    counts = Link_load.counts load;
    bonus = Array.make (Array.length latency_ms) 0;
    taken = Bytes.empty;
  }

type offer = {
  paths : Fwd_path.t array;
  lat : float array;  (* per offered index: one-way latency *)
  order : int array;  (* offered indices by (latency, index) *)
}

let offer c paths =
  let lat =
    Array.map
      (fun (p : Fwd_path.t) ->
        let sum = ref 0.0 in
        for x = 0 to Array.length p.links - 1 do
          sum := !sum +. c.latency_ms.(p.links.(x))
        done;
        !sum)
      paths
  in
  let order = Array.init (Array.length paths) Fun.id in
  Array.sort
    (fun a b ->
      let k = Float.compare lat.(a) lat.(b) in
      if k <> 0 then k else compare a b)
    order;
  { paths; lat; order }

let latency o i = o.lat.(i)

(* Mark each offered path [usable] rejects as taken and clear the
   others' flags, growing the scratch if the offered set is the largest
   seen so far. Returns how many paths are left to choose from. *)
let reserve c ~usable o =
  let n = Array.length o.paths in
  if Bytes.length c.taken < n then
    c.taken <- Bytes.create (max n (2 * Bytes.length c.taken));
  let live = ref 0 in
  for i = 0 to n - 1 do
    let u = usable o.paths.(i) in
    if u then incr live;
    Bytes.set c.taken i (if u then '\000' else '\001')
  done;
  !live

let taken c i = Bytes.get c.taken i <> '\000'

let add_bonus c links =
  for x = 0 to Array.length links - 1 do
    let l = links.(x) in
    c.bonus.(l) <- c.bonus.(l) + 1
  done

let choose c sel r i =
  Bytes.set c.taken i '\001';
  sel.(r) <- i

(* Restore the all-zero [bonus] invariant after a selection. *)
let clear_bonus c o sel =
  for r = 0 to Array.length sel - 1 do
    let links = o.paths.(sel.(r)).Fwd_path.links in
    for x = 0 to Array.length links - 1 do
      c.bonus.(links.(x)) <- 0
    done
  done

(* The rate a new subflow on [links] would get: the minimum of
   [capacity / (count + bonus + 1)] over its links, where [bonus]
   counts the subflows the selection being built has already put
   there. Capacities are positive and never NaN, so [<] picks what
   [Float.min] would. Inlined so the per-candidate result is not
   boxed. *)
let[@inline] rate c links =
  let est = ref infinity in
  for x = 0 to Array.length links - 1 do
    let l = links.(x) in
    let v = c.capacity.(l) /. float_of_int (c.counts.(l) + c.bonus.(l) + 1) in
    if v < !est then est := v
  done;
  !est

(* The [min width live] usable paths of least (latency, index), in that
   order: the canonical preference order latency-greedy uses directly
   and the other strategies fall back to on ties. *)
let select_latency c ~usable ~width o =
  let live = reserve c ~usable o in
  let sel = Array.make (min width live) 0 in
  let r = ref 0 and k = ref 0 in
  while !r < Array.length sel do
    let i = o.order.(!k) in
    if not (taken c i) then begin
      sel.(!r) <- i;
      incr r
    end;
    incr k
  done;
  sel

let overlap c links =
  let k = ref 0 in
  for x = 0 to Array.length links - 1 do
    if c.bonus.(links.(x)) > 0 then incr k
  done;
  !k

(* Greedy maximal link-disjointness: seed with the lowest-latency
   path, then repeatedly add the candidate sharing the fewest links
   with everything chosen so far (ties broken by latency, then
   index). Stops early only when the usable paths run out. *)
let select_diversity c ~usable ~width o =
  let live = reserve c ~usable o in
  let sel = Array.make (min width live) 0 in
  for r = 0 to Array.length sel - 1 do
    let best = ref (-1) and best_ov = ref max_int in
    for k = 0 to Array.length o.order - 1 do
      let i = o.order.(k) in
      if not (taken c i) then begin
        let ov = overlap c o.paths.(i).Fwd_path.links in
        if ov < !best_ov then begin
          best := i;
          best_ov := ov
        end
      end
    done;
    choose c sel r !best;
    add_bonus c o.paths.(!best).Fwd_path.links
  done;
  clear_bonus c o sel;
  sel

(* Maximise the rate a new subflow would actually get ({!rate}),
   accounting for the load the already-chosen subflows of this same
   selection will add. Congestion feedback enters through
   [Link_load]'s counts. A higher estimate wins; ties prefer lower
   latency, then the lower index. *)
let select_adaptive c ~usable ~width o =
  let live = reserve c ~usable o in
  let sel = Array.make (min width live) 0 in
  for r = 0 to Array.length sel - 1 do
    let best = ref (-1) and best_est = ref neg_infinity in
    for k = 0 to Array.length o.order - 1 do
      let i = o.order.(k) in
      if not (taken c i) then begin
        let e = rate c o.paths.(i).Fwd_path.links in
        if !best < 0 || e > !best_est then begin
          best := i;
          best_est := e
        end
      end
    done;
    choose c sel r !best;
    add_bonus c o.paths.(!best).Fwd_path.links
  done;
  clear_bonus c o sel;
  sel

let estimate c o sel =
  let total = ref 0.0 in
  for r = 0 to Array.length sel - 1 do
    let links = o.paths.(sel.(r)).Fwd_path.links in
    total := !total +. rate c links;
    add_bonus c links
  done;
  clear_bonus c o sel;
  !total

(* Every selector scans candidates in the offer's (latency, index)
   order and replaces its pick only on a strict improvement of its own
   score, so a pick is the first best untaken path and ties fall to
   lower latency, then the lower index. When a selection over every
   offered path happens to pick only paths [usable] accepts, the masked
   selection makes the same picks: in each round it scans the same
   candidates in the same order, with the same bonus counts from the
   same earlier picks, and the first best of a set is also the first
   best of any subset holding it. *)
let select t c ~usable ~width o =
  if width < 1 then invalid_arg "Strategy.select: width < 1";
  match t with
  | Latency_greedy -> select_latency c ~usable ~width o
  | Diversity_max -> select_diversity c ~usable ~width o
  | Load_adaptive -> select_adaptive c ~usable ~width o
