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
   its context: simulations on separate domains share no scratch. *)
type ctx = {
  latency_ms : float array;
  load : Link_load.t;
  bonus : int array;
      (* per link: subflows the selection being built adds; all zero
         between calls *)
  mutable taken : Bytes.t;  (* per offered index: already chosen *)
  mutable lat : float array;  (* per offered index: latency, or nan *)
}

let ctx ~latency_ms load =
  {
    latency_ms;
    load;
    bonus = Array.make (Array.length latency_ms) 0;
    taken = Bytes.empty;
    lat = [||];
  }

let path_latency c (p : Fwd_path.t) =
  let sum = ref 0.0 in
  for x = 0 to Array.length p.links - 1 do
    sum := !sum +. c.latency_ms.(p.links.(x))
  done;
  !sum

(* Mark each offered path [usable] rejects as taken and clear the
   others' flags, growing the scratch if the offered set is the largest
   seen so far. Returns how many paths are left to choose from. *)
let reserve c ~usable offered =
  let n = Array.length offered in
  if Bytes.length c.taken < n then begin
    let cap = max n (2 * Bytes.length c.taken) in
    c.taken <- Bytes.create cap;
    c.lat <- Array.make cap Float.nan
  end;
  let live = ref 0 in
  for i = 0 to n - 1 do
    let u = usable offered.(i) in
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
let clear_bonus c offered sel =
  for r = 0 to Array.length sel - 1 do
    let links = offered.(sel.(r)).Fwd_path.links in
    for x = 0 to Array.length links - 1 do
      c.bonus.(links.(x)) <- 0
    done
  done

(* The rate a new subflow on [links] would get: the minimum of
   [capacity / (count + bonus + 1)] over its links, where [bonus]
   counts the subflows the selection being built has already put
   there. *)
let rate c links =
  let load = c.load in
  let est = ref infinity in
  for x = 0 to Array.length links - 1 do
    let l = links.(x) in
    est :=
      Float.min !est
        (Link_load.capacity_mbps load l
        /. float_of_int (Link_load.count load l + c.bonus.(l) + 1))
  done;
  !est

let fill_latencies c offered =
  for i = 0 to Array.length offered - 1 do
    c.lat.(i) <- path_latency c offered.(i)
  done

(* Latency of [offered.(i)], computed on first use. *)
let latency c offered i =
  let v = c.lat.(i) in
  if Float.is_nan v then begin
    let v = path_latency c offered.(i) in
    c.lat.(i) <- v;
    v
  end
  else v

(* The [min width live] usable paths of least (latency, index), in that
   order: the canonical preference order latency-greedy uses directly
   and the other strategies fall back to on ties. *)
let select_latency c ~usable ~width offered =
  let n = Array.length offered in
  let live = reserve c ~usable offered in
  fill_latencies c offered;
  let sel = Array.make (min width live) 0 in
  for r = 0 to Array.length sel - 1 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if
        (not (taken c i))
        && (!best < 0 || Float.compare c.lat.(i) c.lat.(!best) < 0)
      then best := i
    done;
    choose c sel r !best
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
   index). Stops early only when the usable paths run out. Candidates
   are scanned by index and replaced only on a strict improvement, so
   a full tie keeps the lower index. *)
let select_diversity c ~usable ~width offered =
  let n = Array.length offered in
  let live = reserve c ~usable offered in
  fill_latencies c offered;
  let sel = Array.make (min width live) 0 in
  for r = 0 to Array.length sel - 1 do
    let best = ref (-1) and best_ov = ref max_int in
    for i = 0 to n - 1 do
      if not (taken c i) then begin
        let ov = overlap c offered.(i).Fwd_path.links in
        if
          !best < 0 || ov < !best_ov
          || (ov = !best_ov && Float.compare c.lat.(i) c.lat.(!best) < 0)
        then begin
          best := i;
          best_ov := ov
        end
      end
    done;
    choose c sel r !best;
    add_bonus c offered.(!best).Fwd_path.links
  done;
  clear_bonus c offered sel;
  sel

(* Maximise the rate a new subflow would actually get ({!rate}),
   accounting for the load the already-chosen subflows of this same
   selection will add. Congestion feedback enters through
   [Link_load]'s counts. A higher estimate wins; ties prefer lower
   latency, then the lower index (the scan order). *)
let select_adaptive c ~usable ~width offered =
  let n = Array.length offered in
  let live = reserve c ~usable offered in
  Array.fill c.lat 0 n Float.nan;
  let sel = Array.make (min width live) 0 in
  for r = 0 to Array.length sel - 1 do
    let best = ref (-1) and best_est = ref neg_infinity in
    for i = 0 to n - 1 do
      if not (taken c i) then begin
        let e = rate c offered.(i).Fwd_path.links in
        if
          !best < 0 || e > !best_est
          || (e = !best_est && latency c offered i < latency c offered !best)
        then begin
          best := i;
          best_est := e
        end
      end
    done;
    choose c sel r !best;
    add_bonus c offered.(!best).Fwd_path.links
  done;
  clear_bonus c offered sel;
  sel

let estimate c offered sel =
  let total = ref 0.0 in
  for r = 0 to Array.length sel - 1 do
    let links = offered.(sel.(r)).Fwd_path.links in
    total := !total +. rate c links;
    add_bonus c links
  done;
  clear_bonus c offered sel;
  !total

(* Each selector scans the offered paths by index and replaces its pick
   only on a strict improvement, so a pick is the first best untaken
   path. When a selection over every offered path happens to pick only
   paths [usable] accepts, the masked selection makes the same picks:
   in each round it scans the same candidates in the same order, with
   the same bonus counts from the same earlier picks, and the first
   best of a set is also the first best of any subset holding it. *)
let select t c ~usable ~width offered =
  if width < 1 then invalid_arg "Strategy.select: width < 1";
  match t with
  | Latency_greedy -> select_latency c ~usable ~width offered
  | Diversity_max -> select_diversity c ~usable ~width offered
  | Load_adaptive -> select_adaptive c ~usable ~width offered
