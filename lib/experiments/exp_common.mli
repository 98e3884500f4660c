(** Shared experiment plumbing: scale presets and derived topologies.

    Paper scale (§5.1): 12 000-AS CAIDA-like topology, 2 000-AS core,
    an 11-core/7 000-AS ISD, 26 monitors, 6 h of beaconing at 10 min
    intervals. The smaller presets keep every structural knob but
    shrink the AS counts so the full suite runs in CI time. *)

type scale = Tiny | Small | Medium | Paper

val scale_of_string : string -> (scale, string) result
(** Parse ["tiny" | "small" | "medium" | "paper"] (the CLI --scale
    values); [Error] carries a usage message. *)

val scale_to_string : scale -> string

type dimensions = {
  full_n : int;  (** ASes in the full topology *)
  core_k : int;  (** size of the pruned core *)
  isd_cores : int;  (** core ASes of the intra-ISD experiment *)
  monitors : int;
  sample_pairs : int;  (** AS pairs sampled for path-quality CDFs *)
}

val dimensions : scale -> dimensions
(** The structural knobs of each preset (Paper = the §5.1 sizes). *)

val topology_seed : int64
(** Seed shared by every experiment, so they all see the same
    generated topologies. *)

type prepared = {
  scale : scale;
  full : Graph.t;  (** the CAIDA-like topology *)
  core : Graph.t;  (** pruned high-degree core, all links Core *)
  core_old_of_new : int array;
  isd : Graph.t;  (** the large single ISD *)
  monitors_full : int list;  (** monitor AS indices in [full] *)
  monitors_core : int list;  (** the same monitors in [core] *)
}

val prepare : ?seed:int64 -> scale -> prepared
(** Generate and derive all experiment topologies (deterministic). *)

val beacon_config : Beaconing.config
(** §5.1 defaults (10 min interval, 6 h lifetime/duration, limits
    5/60, ECDSA-P384 sizes). *)

val months_factor : Beaconing.config -> float
(** How many simulated windows fit in 30 days — the extrapolation the
    paper applies to compare against one month of BGP traffic. *)

val sample_pairs : Graph.t -> count:int -> seed:int64 -> (int * int) array
(** Distinct random AS pairs. *)

val coreify : Graph.t -> Graph.t
(** Relabel every link between two core ASes as {!Graph.Core}, so an
    ISD graph supports both the core and the intra-ISD beaconing
    hierarchies (used by the Table-1 taxonomy and the traffic
    workloads). *)

val control_plane :
  ?obs:Obs.t ->
  ?jobs:int ->
  Graph.t ->
  Beaconing.outcome * Beaconing.outcome * Control_service.t
(** [control_plane g] runs core and intra-ISD beaconing over [g] (a
    {!coreify}d ISD) for 8 §5.1 intervals and builds the control
    service on the two outcomes, returned as [(core, intra, service)].
    With [jobs > 1] the two beaconing runs execute on separate domains;
    with an enabled [obs] (default {!Obs.disabled}) they are
    instrumented and timed as the [beaconing.core] and
    [beaconing.intra_isd] phases. *)
