type sent_info = {
  ds : float;
  mutable sent_expires_at : float;
  origin : int;
  neighbor : int;
  links : int array;
}

type pair_state = {
  mutable last_eval : float;
  mutable next_eval : float;
}

type t = {
  n_as : int;
  history : (int, (int, int ref) Hashtbl.t) Hashtbl.t; (* pair key -> link -> count *)
  sent : (int, (string, sent_info) Hashtbl.t) Hashtbl.t;
      (* egress link -> parent path key -> info *)
  pairs : (int, pair_state) Hashtbl.t;
}

let create ~n_as =
  {
    n_as;
    history = Hashtbl.create 256;
    sent = Hashtbl.create 64;
    pairs = Hashtbl.create 256;
  }

let pair_key t ~origin ~neighbor = (origin * t.n_as) + neighbor

let pair_state t ~origin ~neighbor =
  let k = pair_key t ~origin ~neighbor in
  match Hashtbl.find_opt t.pairs k with
  | Some s -> s
  | None ->
      let s = { last_eval = neg_infinity; next_eval = infinity } in
      Hashtbl.replace t.pairs k s;
      s

let history_table t ~origin ~neighbor =
  let k = pair_key t ~origin ~neighbor in
  match Hashtbl.find_opt t.history k with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace t.history k h;
      h

(* The pair's Link History Table if it holds any counter. Reads go
   through this, so they never create a table: an absent table counts
   as an empty one. *)
let find_history t ~origin ~neighbor =
  match Hashtbl.find_opt t.history (pair_key t ~origin ~neighbor) with
  | Some h when Hashtbl.length h > 0 -> Some h
  | _ -> None

let counter table link =
  match Hashtbl.find table link with r -> !r | exception Not_found -> 0

let counters_gm t ~origin ~neighbor ~links ~extra =
  match find_history t ~origin ~neighbor with
  | None -> 1.0
  | Some table ->
      let log_sum = ref 0.0 in
      for i = 0 to Array.length links - 1 do
        log_sum := !log_sum +. log (float_of_int (1 + counter table links.(i)))
      done;
      let log_sum = !log_sum +. log (float_of_int (1 + counter table extra)) in
      exp (log_sum /. float_of_int (Array.length links + 1))

let bump table link delta =
  match Hashtbl.find_opt table link with
  | Some r ->
      r := !r + delta;
      if !r <= 0 then Hashtbl.remove table link
  | None -> if delta > 0 then Hashtbl.replace table link (ref delta)

let increment t ~origin ~neighbor ~links ~extra =
  let table = history_table t ~origin ~neighbor in
  Array.iter (fun l -> bump table l 1) links;
  bump table extra 1

(* The dense counter view. Between evaluations every entry is 0; while
   a pair is loaded, [counts.(l)] equals the pair's counter for link
   [l]. The Link History Table stays the source of truth: [increment]
   adds to it first, and the loaded table's keys cover every nonzero
   entry, which is how [unload_view] finds them. *)
type view = { counts : int array }

let create_view ~num_links = { counts = Array.make num_links 0 }

let load_view v t ~origin ~neighbor =
  match find_history t ~origin ~neighbor with
  | None -> ()
  | Some table -> Hashtbl.iter (fun l r -> v.counts.(l) <- !r) table

let unload_view v t ~origin ~neighbor =
  match find_history t ~origin ~neighbor with
  | None -> ()
  | Some table -> Hashtbl.iter (fun l _ -> v.counts.(l) <- 0) table

let view_increment v t ~origin ~neighbor ~links ~extra =
  increment t ~origin ~neighbor ~links ~extra;
  let counts = v.counts in
  for i = 0 to Array.length links - 1 do
    let l = links.(i) in
    counts.(l) <- counts.(l) + 1
  done;
  counts.(extra) <- counts.(extra) + 1

let view_is_clear v = Array.for_all (fun c -> c = 0) v.counts

(* [log_one_plus.(c)] is [log (float_of_int (1 + c))], computed with
   that exact expression so table reads are bit-identical to it. *)
let log_table_size = 4096

let log_one_plus = Array.init log_table_size (fun c -> log (float_of_int (1 + c)))

let[@inline] log_count c =
  if c < log_table_size then log_one_plus.(c)
  else log (float_of_int (1 + c))

(* Same additions in the same order as [counters_gm], so the result
   is bit-identical; an all-zero view gives exactly the 1.0 that
   [counters_gm] returns for an empty table. *)
let view_mean v ~links ~extra =
  let counts = v.counts in
  let n = Array.length links in
  let log_sum = ref 0.0 in
  for i = 0 to n - 1 do
    log_sum := !log_sum +. log_count counts.(links.(i))
  done;
  let log_sum = !log_sum +. log_count counts.(extra) in
  exp (log_sum /. float_of_int (n + 1))

let sent_table t egress =
  match Hashtbl.find_opt t.sent egress with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace t.sent egress s;
      s

let find_sent t ~egress ~key =
  match Hashtbl.find_opt t.sent egress with
  | None -> None
  | Some table -> Hashtbl.find_opt table key

let record_sent t ~origin ~neighbor ~egress ~key ~links ~ds ~expires_at =
  let info = { ds; sent_expires_at = expires_at; origin; neighbor; links } in
  Hashtbl.replace (sent_table t egress) key info

let refresh_sent info ~expires_at = info.sent_expires_at <- expires_at

let should_evaluate t ~origin ~neighbor ~store_last_mod ~now =
  let s = pair_state t ~origin ~neighbor in
  (* ">=": a store update in the same round as the last evaluation (the
     engine evaluates before it delivers) must trigger re-evaluation. *)
  store_last_mod >= s.last_eval || now >= s.next_eval

let begin_evaluation t ~origin ~neighbor ~now =
  let s = pair_state t ~origin ~neighbor in
  s.last_eval <- now;
  s.next_eval <- infinity

let propose_next_eval t ~origin ~neighbor time =
  let s = pair_state t ~origin ~neighbor in
  if time < s.next_eval then s.next_eval <- time

let prune t ~now =
  Hashtbl.iter
    (fun _ table ->
      let dead =
        Hashtbl.fold
          (fun key info acc ->
            if info.sent_expires_at <= now then (key, info) :: acc else acc)
          table []
      in
      List.iter
        (fun (key, info) ->
          Hashtbl.remove table key;
          match find_history t ~origin:info.origin ~neighbor:info.neighbor with
          | Some h -> Array.iter (fun l -> bump h l (-1)) info.links
          | None -> ())
        dead)
    t.sent

let sent_count t =
  Hashtbl.fold (fun _ table acc -> acc + Hashtbl.length table) t.sent 0
