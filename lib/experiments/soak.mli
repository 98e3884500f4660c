(** Checkpointable long-horizon beaconing soak under a fault plan.

    One soak {e trial} runs a {!Fault_engine.driver} (baseline beaconing
    gated by the plan, registering at a path server limited to the
    storage limit) for its configured duration and tracks, at every
    round barrier, each (source, origin) pair's {e path lifetimes}
    (rounds between a path key appearing in the source's beacon store
    and vanishing from it), {e path-set stability} (Jaccard similarity
    of consecutive rounds' key sets) and {e availability} (fraction of
    rounds with a valid path). One seeded path-server lookup per round
    keeps the trial's RNG live.

    The whole trial state (round, RNG, driver, per-pair tracks and the
    private metrics registry) round-trips through {!encode}/{!restore},
    and a restored trial continues {e byte-identically}: advancing to
    round [r] in one go or in any sequence of [advance]/[encode]/[restore]
    chunks yields the same {!encode} bytes and the same {!report}. Only
    the [Baseline] algorithm is supported (see {!Beaconing.write}). *)

type config = {
  graph : Graph.t;
  beacon : Beaconing.config;  (** must use the [Baseline] algorithm *)
  plan : Fault_plan.t;
  pairs : (int * int) array;  (** tracked (source AS, origin AS) pairs *)
  register_top : int;
      (** best segments per pair registered at the path server every
          round (keeps registry ↔ revocation consistency observable) *)
  metric_labels : (string * string) list;
      (** labels applied to the trial's metrics (e.g. the cell id) *)
}

type t

val create : config -> t
(** Fresh trial at round 0. Raises [Invalid_argument] on a
    non-[Baseline] algorithm, an invalid pair, or a config
    {!Beaconing.engine} rejects. *)

val round : t -> int
(** Next round to execute (= rounds completed). *)

val advance : ?watchdog:Watchdog.t -> t -> upto:int -> unit
(** Execute rounds [round t .. upto - 1] (clamped to the planned round
    count). The [watchdog] is checked at every round boundary, where
    state is consistent. *)

val registry : t -> Registry.t
(** The trial-private metrics registry (path-lifetime histogram),
    serialized with the trial; the caller may merge it into an [Obs]. *)

val lifetime_metric : string
(** Name of the path-lifetime histogram (rounds) in {!registry}. *)

val invariant_ctx : t -> Invariants.ctx
(** The trial's state packaged for {!Invariants.check_all}. *)

(** {1 Snapshots} *)

val encode : t -> string
(** Canonical bytes of the full trial state. Equal logical states
    encode equally; [encode (restore cfg (encode t)) = encode t]. *)

val restore : config -> string -> t
(** Rebuild a trial from {!encode} output. Raises {!Snapshot.Corrupt}
    on malformed bytes or a snapshot inconsistent with [config]
    (wrong store / link / pair counts). *)

val config_key : config -> string
(** Canonical text of everything that determines a trial's evolution
    (graph links, beaconing parameters, compiled fault events, tracked
    pairs), for checkpoint schema fingerprints: a resume against a
    different configuration is rejected up front. *)

(** {1 Reports} *)

type report = {
  rounds_done : int;
  availability_mean : float;
      (** over pairs, of the fraction of rounds with ≥ 1 valid path *)
  availability_min : float;
  jaccard_overall : float;
      (** over pairs, of the mean consecutive-round path-set similarity;
          1.0 = static *)
  lifetimes : Histogram.summary;
      (** completed path lifetimes, in rounds *)
  survivors : int;  (** paths still alive at the end *)
  link_failures : int;  (** real down transitions (refcount 0→1) *)
  link_repairs : int;
  pcbs_dropped : int;  (** PCBs revoked from beacon stores *)
  segments_revoked : int;  (** segments revoked at the path server *)
  ps_stats : Path_server.stats;
  total_pcbs : int;
  total_bytes : float;
}

val report : t -> report
(** Pure read; never perturbs the trial state. *)
