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

let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let latency_quality p ~total_ms =
  if p.latency_scale_ms <= 0.0 then 0.0
  else clamp01 (1.0 -. (total_ms /. p.latency_scale_ms))

let diversity_of_gm p gm = clamp01 (1.0 -. ((gm -. 1.0) /. p.gm_max))

let score_fresh p ~ds ~age ~lifetime =
  if lifetime <= 0.0 then 0.0
  else begin
    let f = p.alpha *. (max 0.0 age /. lifetime) in
    ds ** f
  end

let score_resend p ~ds ~sent_remaining ~current_remaining =
  if current_remaining <= 0.0 then 0.0
  else begin
    let ratio = max 0.0 sent_remaining /. current_remaining in
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
