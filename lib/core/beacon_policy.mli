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

(** {2 Row kernel}

    One (origin, neighbor) evaluation of Algorithm 1 scores a table of
    combinations: one {e row} per candidate path that avoids the
    neighbor, one {e column} per parallel egress link to it, and
    combination [k = row * cols + j], so [k] runs through the candidates
    and then the egress links. What a row's columns share is kept once
    per row: the path, the sum of [log (1 + counter)] over its links
    (written by [Diversity_state.view_sum_into]) and Eq. 2's age
    exponent. Per column the table holds the egress link, its
    [log (1 + counter)] ([Diversity_state.view_logs_into]), the Sent
    PCBs List entry ([Diversity_state.no_sent] when there is none) and
    the result: the score and whether the resend branch gave it.

    {!score} writes exactly what the Eq. 1–3 functions above give for
    the combination — {!score_resend} against a live entry, otherwise
    {!score_fresh} of {!diversity_of_gm} of the pair's
    [Diversity_state.counters_gm] (or of {!latency_quality} of the
    latency over the egress link and then the path's links) — bit for
    bit, without boxing a float. *)

type table = {
  mutable rows : int;  (** rows in use *)
  mutable cols : int;  (** parallel egress links *)
  mutable path : Pcb.t array;  (** per row *)
  mutable log_sum : float array;  (** per row; link diversity only *)
  mutable exponent : float array;  (** per row, set by {!score_row} *)
  mutable egress : int array;  (** per column: the egress link id *)
  mutable egress_log : float array;  (** per column; link diversity only *)
  mutable score : float array;  (** per combination *)
  mutable sent : Diversity_state.sent_info array;  (** per combination *)
  mutable resend : bool array;  (** per combination *)
  mutable next_eval : float;
      (** the earliest {!resend_crossing_time} of a resend-branch score at
          or below the threshold since {!reset_table} *)
}

val create_table : unit -> table
(** An empty table; one per engine, reused by every evaluation. *)

val reset_table : table -> rows:int -> cols:int -> unit
(** Make room for [rows] rows of [cols] columns, with no row in use and
    [next_eval = infinity]. Arrays only grow. *)

val score_row : t -> table -> now:float -> int -> unit
(** Set the row's age exponent and {!score} each of its columns. The
    row's path, log sum and entries must be in place. Raises
    [Invalid_argument] on [Baseline]. *)

val score : t -> table -> now:float -> int -> unit
(** Re-score one combination from its current inputs. *)

val base : t -> table -> int -> float
(** The base quality of combination [k]: link diversity against the
    counters its row and column hold, or latency quality. *)
