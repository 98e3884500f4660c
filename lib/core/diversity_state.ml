type sent_info = {
  ds : float;
  mutable sent_expires_at : float;
  origin : int;
  neighbor : int;
  egress : int;
  links : int array;
}

(* Shared by every combination with no Sent PCBs List entry; it expired
   before any evaluation, so it is never scored as a resend. *)
let no_sent =
  {
    ds = 0.0;
    sent_expires_at = neg_infinity;
    origin = -1;
    neighbor = -1;
    egress = -1;
    links = [||];
  }

type pair_state = {
  mutable last_eval : float;
  mutable next_eval : float;
}

type t = {
  n_as : int;
  history : (int, (int, int ref) Hashtbl.t) Hashtbl.t; (* pair key -> link -> count *)
  sent : (string, sent_info list) Hashtbl.t;
      (* parent path key -> one entry per egress link *)
  pairs : (int, pair_state) Hashtbl.t;
}

let create ~n_as =
  {
    n_as;
    history = Hashtbl.create 256;
    sent = Hashtbl.create 256;
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

(* The additions of [counters_gm] over [links], in its order, so
   adding the egress term to the result is bit-identical to it; an
   all-zero view gives the 0.0 whose [exp] is the 1.0 [counters_gm]
   returns for an empty table. *)
let view_sum_into v ~links dst i =
  let counts = v.counts in
  let log_sum = ref 0.0 in
  for l = 0 to Array.length links - 1 do
    log_sum := !log_sum +. log_count counts.(links.(l))
  done;
  dst.(i) <- !log_sum

let view_logs_into v ~links ~len dst =
  let counts = v.counts in
  for j = 0 to len - 1 do
    dst.(j) <- log_count counts.(links.(j))
  done

type sent_row = sent_info list

let sent_row t ~key =
  match Hashtbl.find t.sent key with row -> row | exception Not_found -> []

let rec sent_on row ~egress =
  match row with
  | [] -> no_sent
  | info :: rest -> if info.egress = egress then info else sent_on rest ~egress

let record_sent t ~origin ~neighbor ~egress ~key ~links ~ds ~expires_at =
  let info =
    { ds; sent_expires_at = expires_at; origin; neighbor; egress; links }
  in
  (* A previous entry on this egress is replaced, not pruned: its path's
     counters are not decremented. *)
  let others = List.filter (fun e -> e.egress <> egress) (sent_row t ~key) in
  Hashtbl.replace t.sent key (info :: others);
  info

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
  Hashtbl.filter_map_inplace
    (fun _ row ->
      let dead, live = List.partition (fun e -> e.sent_expires_at <= now) row in
      List.iter
        (fun e ->
          match find_history t ~origin:e.origin ~neighbor:e.neighbor with
          | Some h -> Array.iter (fun l -> bump h l (-1)) e.links
          | None -> ())
        dead;
      match live with [] -> None | _ -> Some live)
    t.sent

let sent_count t = Hashtbl.fold (fun _ row acc -> acc + List.length row) t.sent 0
