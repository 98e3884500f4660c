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

type table = {
  mutable rows : int;
  mutable cols : int;
  mutable path : Pcb.t array;
  mutable log_sum : float array;
  mutable exponent : float array;
  mutable egress : int array;
  mutable egress_log : float array;
  mutable score : float array;
  mutable sent : Diversity_state.sent_info array;
  mutable resend : bool array;
  mutable next_eval : float;
}

let no_path = Pcb.origin_pcb ~origin:(-1) ~now:0.0 ~lifetime:0.0

let create_table () =
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
  }

let reset_table t ~rows ~cols =
  let grown need len = max need (2 * len) in
  if rows > Array.length t.path then begin
    let cap = grown rows (Array.length t.path) in
    t.path <- Array.make cap no_path;
    t.log_sum <- Array.make cap 0.0;
    t.exponent <- Array.make cap 0.0
  end;
  if cols > Array.length t.egress then begin
    let cap = grown cols (Array.length t.egress) in
    t.egress <- Array.make cap 0;
    t.egress_log <- Array.make cap 0.0
  end;
  if rows * cols > Array.length t.score then begin
    let cap = grown (rows * cols) (Array.length t.score) in
    t.score <- Array.make cap 0.0;
    t.sent <- Array.make cap Diversity_state.no_sent;
    t.resend <- Array.make cap false
  end;
  t.rows <- 0;
  t.cols <- cols;
  t.next_eval <- infinity

let params_of = function
  | Diversity p -> p
  | Latency_aware lp -> lp.base
  | Baseline -> invalid_arg "Beacon_policy: Baseline scores no combination"

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

let base policy t k = base_at policy t (k / t.cols) (k mod t.cols)

let score policy t ~now k =
  let p = params_of policy in
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

let score_row policy t ~now r =
  let p = params_of policy in
  let path = t.path.(r) in
  t.exponent.(r) <-
    age_exponent p ~age:(now -. path.Pcb.timestamp) ~lifetime:path.Pcb.lifetime;
  for k = r * t.cols to ((r + 1) * t.cols) - 1 do
    score policy t ~now k
  done
