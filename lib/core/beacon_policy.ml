type div_params = {
  alpha : float;
  beta : float;
  gamma : float;
  threshold : float;
  gm_max : float;
}

let default_div_params =
  {
    alpha = 40.0;
    beta = 6.0;
    gamma = 7.0;
    threshold = 0.30;
    gm_max = 4.0;
  }

type latency_params = {
  base : div_params;
  link_latency_ms : float array;
  latency_scale_ms : float;
}

type t = Baseline | Diversity of div_params | Latency_aware of latency_params

let[@inline] clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

(* [Stdlib.max 0.0 x], without the polymorphic comparison that boxes
   [x]. *)
let[@inline] max0 x = if 0.0 >= x then 0.0 else x

(* The formulas, each written once and inlined into the row kernel
   below, whose floats then stay unboxed. *)

let[@inline] latency_quality p ~total_ms =
  if p.latency_scale_ms <= 0.0 then 0.0
  else clamp01 (1.0 -. (total_ms /. p.latency_scale_ms))

(* The egress link first, then the path's links in order. *)
let[@inline] latency_total p ~links ~egress =
  let table = p.link_latency_ms in
  let total = ref table.(egress) in
  for i = 0 to Array.length links - 1 do
    total := !total +. table.(links.(i))
  done;
  !total

let[@inline] diversity_of_gm p gm = clamp01 (1.0 -. ((gm -. 1.0) /. p.gm_max))

(* Eq. 2's exponent, [alpha * age / lifetime]. *)
let[@inline] age_exponent p ~age ~lifetime = p.alpha *. (max0 age /. lifetime)

let[@inline] fresh_score ~ds ~exponent ~lifetime =
  if lifetime <= 0.0 then 0.0 else ds ** exponent

let score_fresh p ~ds ~age ~lifetime =
  fresh_score ~ds ~exponent:(age_exponent p ~age ~lifetime) ~lifetime

let[@inline] score_resend p ~ds ~sent_remaining ~current_remaining =
  if current_remaining <= 0.0 then 0.0
  else begin
    let ratio = max0 sent_remaining /. current_remaining in
    let g = (p.beta *. ratio) ** p.gamma in
    ds ** g
  end

let resend_crossing_time p ~ds ~now ~sent_expires_at ~current_expires_at =
  if ds >= 1.0 then now
  else if ds <= 0.0 then infinity
  else begin
    (* score >= threshold  <=>  sent_remaining / current_remaining <= r*. *)
    let r_star = (log p.threshold /. log ds) ** (1.0 /. p.gamma) /. p.beta in
    let sr = sent_expires_at -. now and cr = current_expires_at -. now in
    if cr <= 0.0 then infinity
    else if sr /. cr <= r_star then now
    else if current_expires_at <= sent_expires_at then
      (* The ratio does not decrease over time: it can only cross once
         the sent entry itself expires — which prune handles. *)
      infinity
    else if r_star >= 1.0 then now
    else begin
      let t = (sent_expires_at -. (r_star *. current_expires_at)) /. (1.0 -. r_star) in
      (* Past the sent instance's expiry the entry leaves the Sent PCBs
         List anyway; re-evaluate then at the latest. *)
      min t sent_expires_at
    end
  end


let dissemination_limit = 5

(* --- Algorithm 1 per (origin, neighbor), on a path-major table: one
   row per candidate path that avoids the neighbor, one column per
   parallel egress link to it, combination [k = row * cols + j]
   (candidate order, then egress order, so the strict-[>] argmax picks
   the first maximum in that order). Each row
   looks up its Sent PCBs List entries once, by parent key. Link
   diversity is read from the dense view, which only that metric
   maintains: a row keeps the log sum over its path's links and its
   age exponent, shared by its columns. The score is written straight
   into the table, so no float is boxed per combination. --- *)

type scratch = {
  mutable rows : int;  (* rows in use *)
  mutable cols : int;  (* parallel egress links *)
  mutable path : Pcb.t array;  (* per row *)
  mutable log_sum : float array;  (* per row; link diversity only *)
  mutable exponent : float array;  (* per row: Eq. 2's age exponent *)
  mutable egress : int array;  (* per column: the egress link id *)
  mutable egress_log : float array;  (* per column; link diversity only *)
  mutable score : float array;  (* per combination *)
  mutable sent : Diversity_state.sent_info array;  (* per combination *)
  mutable resend : bool array;  (* per combination *)
  mutable next_eval : float;
      (* the earliest [resend_crossing_time] of a resend-branch score at
         or below the threshold in this evaluation *)
  view : Diversity_state.view;
  link_stamp : int array;
      (* a link carries the current [stamp] iff the last dissemination
         touched its counter *)
  mutable stamp : int;
}

let no_path = Pcb.origin_pcb ~origin:(-1) ~now:0.0 ~lifetime:0.0

let create_scratch ~num_links =
  {
    rows = 0;
    cols = 0;
    path = [||];
    log_sum = [||];
    exponent = [||];
    egress = [||];
    egress_log = [||];
    score = [||];
    sent = [||];
    resend = [||];
    next_eval = infinity;
    view = Diversity_state.create_view ~num_links;
    link_stamp = Array.make num_links 0;
    stamp = 0;
  }

(* Make room for [rows] rows over the columns [egress], with no row in
   use. Arrays only grow. *)
let reset t ~rows ~egress =
  let cols = Array.length egress in
  let grown need len = max need (2 * len) in
  if rows > Array.length t.path then begin
    let cap = grown rows (Array.length t.path) in
    t.path <- Array.make cap no_path;
    t.log_sum <- Array.make cap 0.0;
    t.exponent <- Array.make cap 0.0
  end;
  if cols > Array.length t.egress_log then
    t.egress_log <- Array.make (grown cols (Array.length t.egress_log)) 0.0;
  if rows * cols > Array.length t.score then begin
    let cap = grown (rows * cols) (Array.length t.score) in
    t.score <- Array.make cap 0.0;
    t.sent <- Array.make cap Diversity_state.no_sent;
    t.resend <- Array.make cap false
  end;
  t.rows <- 0;
  t.cols <- cols;
  t.egress <- egress;
  t.next_eval <- infinity

let params_of = function
  | Diversity p -> p
  | Latency_aware lp -> lp.base
  | Baseline -> invalid_arg "Beacon_policy: Baseline scores no combination"

(* The base quality of combination (row [r], column [j]): link
   diversity against the counters the table holds, or latency
   quality. *)
let[@inline] base_at policy t r j =
  let links = t.path.(r).Pcb.links in
  match policy with
  | Diversity p ->
      diversity_of_gm p
        (exp
           ((t.log_sum.(r) +. t.egress_log.(j))
           /. float_of_int (Array.length links + 1)))
  | Latency_aware lp ->
      latency_quality lp ~total_ms:(latency_total lp ~links ~egress:t.egress.(j))
  | Baseline -> invalid_arg "Beacon_policy: Baseline scores no combination"

(* Score combination [k] from its current inputs: [score_resend]
   against a live entry, otherwise [score_fresh] of the base quality,
   bit for bit. *)
let score policy p t ~now k =
  let r = k / t.cols in
  let path = t.path.(r) in
  let info = t.sent.(k) in
  let sent_expires_at = info.Diversity_state.sent_expires_at in
  if sent_expires_at > now then begin
    let ds = info.Diversity_state.ds in
    let current_expires_at = path.Pcb.timestamp +. path.Pcb.lifetime in
    let s =
      score_resend p ~ds ~sent_remaining:(sent_expires_at -. now)
        ~current_remaining:(max0 (current_expires_at -. now))
    in
    if s <= p.threshold then begin
      let at =
        resend_crossing_time p ~ds ~now ~sent_expires_at ~current_expires_at
      in
      if at < t.next_eval then t.next_eval <- at
    end;
    t.score.(k) <- s;
    t.resend.(k) <- true
  end
  else begin
    let ds = base_at policy t r (k - (r * t.cols)) in
    t.score.(k) <-
      fresh_score ~ds ~exponent:t.exponent.(r) ~lifetime:path.Pcb.lifetime;
    t.resend.(k) <- false
  end

(* Fill row [t.rows] with [path] and score its columns. *)
let add_row policy p t st ~track_history ~now path =
  let r = t.rows in
  t.path.(r) <- path;
  if track_history then
    Diversity_state.view_sum_into t.view ~links:path.Pcb.links t.log_sum r;
  let row = Diversity_state.sent_row st ~key:path.Pcb.key in
  for j = 0 to t.cols - 1 do
    t.sent.((r * t.cols) + j) <- Diversity_state.sent_on row ~egress:t.egress.(j)
  done;
  t.rows <- r + 1;
  t.exponent.(r) <-
    age_exponent p ~age:(now -. path.Pcb.timestamp) ~lifetime:path.Pcb.lifetime;
  for k = r * t.cols to ((r + 1) * t.cols) - 1 do
    score policy p t ~now k
  done

(* The first combination with the highest score above the threshold,
   or -1. *)
let best p t =
  let threshold = p.threshold in
  let best = ref (-1) in
  let best_score = ref 0.0 in
  let scores = t.score in
  for k = 0 to (t.rows * t.cols) - 1 do
    let s = scores.(k) in
    if s > threshold && s > !best_score then begin
      best_score := s;
      best := k
    end
  done;
  !best

(* After a fresh dissemination of combination [i] was counted in the
   Link History Table, re-score what it changed: [i] itself (its entry
   changed) and the fresh-branch columns that use a link it counted.
   One stamp scan per row says whether the row's path does; if so its
   log sum is recomputed and all its fresh columns are re-scored,
   otherwise only those on the stamped egress link. *)
let rescore_counted policy p t ~now i =
  let nh = t.cols in
  let link_stamp = t.link_stamp in
  t.stamp <- t.stamp + 1;
  let cur = t.stamp in
  let sent_links = t.path.(i / nh).Pcb.links in
  for l = 0 to Array.length sent_links - 1 do
    link_stamp.(sent_links.(l)) <- cur
  done;
  link_stamp.(t.egress.(i mod nh)) <- cur;
  for r = 0 to t.rows - 1 do
    let links = t.path.(r).Pcb.links in
    let n = Array.length links in
    let l = ref 0 in
    while !l < n && link_stamp.(links.(!l)) <> cur do
      incr l
    done;
    let hit = !l < n in
    if hit then Diversity_state.view_sum_into t.view ~links t.log_sum r;
    for j = 0 to nh - 1 do
      let k = (r * nh) + j in
      if
        k = i
        || (not t.resend.(k)) && (hit || link_stamp.(t.egress.(j)) = cur)
      then score policy p t ~now k
    done
  done

(* Send combination [i] and update the Sent PCBs List, the Link
   History Table and the table after it. A resend changes no counter,
   so it re-scores only itself. *)
let disseminate policy p t st ~track_history ~origin ~neighbor ~now ~send i =
  let nh = t.cols in
  let r = i / nh and j = i mod nh in
  let path = t.path.(r) and egress = t.egress.(j) in
  send path j;
  let expires_at = Pcb.expires_at path in
  if t.resend.(i) then begin
    Diversity_state.refresh_sent t.sent.(i) ~expires_at;
    score policy p t ~now i
  end
  else begin
    if track_history then begin
      Diversity_state.view_increment t.view st ~origin ~neighbor
        ~links:path.Pcb.links ~extra:egress;
      (* The sent row's inputs now; [rescore_counted] refreshes the
         other rows. *)
      Diversity_state.view_logs_into t.view ~links:t.egress ~len:nh t.egress_log;
      Diversity_state.view_sum_into t.view ~links:path.Pcb.links t.log_sum r
    end;
    (* The recorded base score reflects the state after this
       dissemination. *)
    t.sent.(i) <-
      Diversity_state.record_sent st ~origin ~neighbor ~egress ~key:path.Pcb.key
        ~links:(Array.append path.Pcb.links [| egress |])
        ~ds:(base_at policy t r j) ~expires_at;
    if track_history then rescore_counted policy p t ~now i
    else score policy p t ~now i
  end

let evaluate policy t st ~origin ~neighbor ~now ~store_last_mod ~candidates
    ~egress ~send =
  let p = params_of policy in
  if Diversity_state.should_evaluate st ~origin ~neighbor ~store_last_mod ~now
  then begin
    let track_history =
      match policy with
      | Diversity _ -> true
      | Baseline | Latency_aware _ -> false
    in
    Diversity_state.begin_evaluation st ~origin ~neighbor ~now;
    if track_history then Diversity_state.load_view t.view st ~origin ~neighbor;
    let cands = candidates origin in
    reset t ~rows:(List.length cands) ~egress;
    if track_history then
      Diversity_state.view_logs_into t.view ~links:egress ~len:t.cols
        t.egress_log;
    List.iter
      (fun (path : Pcb.t) ->
        if not (Pcb.contains_as path neighbor) then
          add_row policy p t st ~track_history ~now path)
      cands;
    let sent = ref 0 in
    let i = ref (best p t) in
    while !i >= 0 do
      disseminate policy p t st ~track_history ~origin ~neighbor ~now ~send !i;
      incr sent;
      i := if !sent < dissemination_limit then best p t else -1
    done;
    if t.next_eval < infinity then
      Diversity_state.propose_next_eval st ~origin ~neighbor t.next_eval;
    if track_history then
      Diversity_state.unload_view t.view st ~origin ~neighbor
  end
