(** Path-construction policies and the §4.2 scoring functions.

    The baseline algorithm disseminates the [P] shortest stored paths
    per origin on every eligible interface, each interval, irrespective
    of what was previously sent. The path-diversity-based algorithm
    scores candidate paths by link disjointness, age and lifetime
    (Equations 1–3) and sends only combinations scoring above a
    threshold. *)

type div_params = {
  alpha : float;  (** Eq. 2 exponent weight for never-sent PCBs *)
  beta : float;  (** Eq. 3 ratio weight for previously-sent PCBs *)
  gamma : float;  (** Eq. 3 outer exponent *)
  threshold : float;  (** minimum score to disseminate *)
  gm_max : float;
      (** maximum acceptable geometric mean of link counters: the
          diversity score is [1 - (gm - 1) / gm_max], clamped to
          [\[0,1\]] (see DESIGN.md §6 for the interpretation) *)
}

val default_div_params : div_params
(** Parameters found by the two-stage grid search of §4.2 on the
    synthetic topologies (see {!Tuning}). *)

type latency_params = {
  base : div_params;
      (** the Eq. 1–3 age/lifetime machinery is metric-independent and
          reused verbatim; [gm_max] is unused here *)
  link_latency_ms : float array;
      (** per-link one-way latency, the information annotated PCBs (or
          a measurement side-channel) would carry (§4.2) *)
  latency_scale_ms : float;
      (** latency at which a path's quality reaches 0 *)
}

type t =
  | Baseline
  | Diversity of div_params
  | Latency_aware of latency_params
      (** §4.2 "optimizing for other criteria": same selection loop as
          the diversity algorithm, but candidate quality is derived
          from accumulated path latency instead of link disjointness *)

val diversity_of_gm : div_params -> float -> float
(** [diversity_of_gm p gm] maps a geometric mean of [(1 + counter)]
    values to the [\[0,1\]] link-diversity score. *)

val score_fresh : div_params -> ds:float -> age:float -> lifetime:float -> float
(** Eq. 1 lower branch with Eq. 2: [ds ** (alpha * age / lifetime)]. *)

val latency_quality : latency_params -> total_ms:float -> float
(** [clamp01 (1 - total_ms / latency_scale_ms)]: lower-latency paths
    score higher. *)

val score_resend :
  div_params -> ds:float -> sent_remaining:float -> current_remaining:float -> float
(** Eq. 1 upper branch with Eq. 3:
    [ds ** ((beta * sent_remaining / current_remaining) ** gamma)].
    Returns 0 when the current instance has no remaining lifetime. *)

val resend_crossing_time :
  div_params ->
  ds:float ->
  now:float ->
  sent_expires_at:float ->
  current_expires_at:float ->
  float
(** The earliest virtual time at which {!score_resend} for this
    previously-sent path and the given stored candidate instance can
    reach the threshold. Both remaining lifetimes decay linearly, so
    the crossing is solvable in closed form; [infinity] when it can
    never cross before the sent instance expires, [now] when the score
    is already above the threshold. Used by the beacon server to skip
    (origin, neighbor) pairs whose selection provably cannot change
    yet — a pure scheduling optimisation. *)
