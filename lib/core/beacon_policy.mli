(** Path-construction policies, the §4.2 scoring functions and
    Algorithm 1.

    The baseline algorithm disseminates the [P] shortest stored paths
    per origin on every eligible interface, each interval, irrespective
    of what was previously sent ([Beaconing] runs it). The
    path-diversity-based algorithm scores candidate paths by link
    disjointness, age and lifetime (Equations 1–3) and sends only
    combinations scoring above a threshold: {!evaluate} runs it for one
    (origin, neighbor) pair, with {!Diversity_state} as its memory. *)

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

val dissemination_limit : int
(** 5, the §5.1 limit of every paper experiment: max PCBs per origin
    per interval, applied per interface by the baseline selection and
    per neighbor AS by {!evaluate}. *)

(** {2 Algorithm 1}

    One (origin, neighbor) evaluation scores a table of combinations:
    one {e row} per candidate path that avoids the neighbor, one
    {e column} per parallel egress link to it, combination
    [k = row * cols + j], so [k] runs through the candidates and then
    the egress links. A row keeps once, for all its columns, its Sent
    PCBs List entries (one lookup by parent key), Eq. 2's age exponent
    and, for link diversity, the sum of [log (1 + counter)] over its
    path's links from the dense counter view of {!Diversity_state}.

    Every combination is scored once. After a dissemination only what
    it changed is re-scored: the sent combination (its entry changed)
    and, when the dissemination counted a new path in the Link History
    Table, the fresh-branch columns that use a link it counted. A
    combination's score is always what the functions above give for
    it — {!score_resend} against a live entry, otherwise {!score_fresh}
    of {!diversity_of_gm} of the pair's [Diversity_state.counters_gm]
    (or of {!latency_quality} of the latency over the egress link and
    then the path's links) — bit for bit, without boxing a float. So
    every send equals that of a full rescan after each dissemination. *)

type scratch
(** The working memory of {!evaluate}: the table, the dense counter
    view and the per-link stamps of the re-scoring pass. One per
    engine, reused by every evaluation. *)

val create_scratch : num_links:int -> scratch
(** Scratch for link ids [0 .. num_links - 1]. *)

val evaluate :
  t ->
  scratch ->
  Diversity_state.t ->
  origin:int ->
  neighbor:int ->
  now:float ->
  store_last_mod:float ->
  candidates:(int -> Pcb.t list) ->
  egress:int array ->
  send:(Pcb.t -> int -> unit) ->
  unit
(** [evaluate policy s st ~origin ~neighbor ~now ~store_last_mod
    ~candidates ~egress ~send] runs Algorithm 1 (§4.2) for one
    (origin, neighbor) pair of the AS whose state is [st]:

    - unless [Diversity_state.should_evaluate] says the pair is due
      ([store_last_mod] is when the origin's stored paths last changed),
      it does nothing;
    - otherwise it scores every combination of the [candidates origin] that
      avoid [neighbor] with the parallel egress links [egress] (link
      ids, in interface order) and sends the best one above the
      threshold, [send path j] for [egress.(j)], until none is left or
      {!dissemination_limit} were sent. Ties go to the first candidate,
      then the first egress link. The candidates must have distinct
      keys, as a beacon store's paths do, and [egress] distinct links;
    - each send updates the Sent PCBs List ([Diversity_state.record_sent]
      with the base quality after the send, or
      [Diversity_state.refresh_sent] for a resend) and, for link
      diversity, the Link History Table;
    - the pair's next evaluation is proposed at the earliest
      {!resend_crossing_time} of a resend score at or below the
      threshold.

    Raises [Invalid_argument] on [Baseline]. *)
