(** Swarm file-transfer workload.

    The BitTorrent-over-SCION experiment distilled: a population of
    bulk file transfers between the same endpoint pairs, run three
    times from one demand seed — forced single-path, multipath over a
    maximally link-disjoint set, and multipath with load-adaptive
    re-selection — so the only difference between the runs is how
    many (and which) of the offered paths each transfer rides.
    Multipath aggregates the fair shares of disjoint bottlenecks, so
    its mean completion time is measurably lower; {!compare} reports
    the speedups. *)

type params = {
  transfers : int;  (** file transfers over the horizon *)
  n_pairs : int;
  file_mbit : float;  (** mean file size *)
  width : int;  (** subflows per transfer in the multipath modes *)
  horizon_s : float;
  drain_s : float;  (** extra simulated time for late transfers *)
  seed : int64;
}

val default_params : params
(** 2 000 transfers of ~400 Mbit between 40 pairs over 10 minutes,
    3-way multipath, 5 minutes of drain. *)

val demand : Graph.t -> params -> Demand.t
(** The shared demand model: every mode consumes exactly this, so the
    comparison is paired at the level of individual transfers. *)

type mode = Single_path | Multi_diversity | Multi_adaptive

val modes : mode list

val mode_name : mode -> string
(** [single], [multi-div] or [multi-load]. *)

val cell_config :
  graph:Graph.t ->
  paths:Fwd_path.t array array ->
  latency_ms:float array ->
  demand:Demand.t ->
  capacity_scale:float ->
  slot_s:float ->
  params ->
  mode ->
  Traffic_sim.config
(** Simulation config for one mode; fault-free (the comparison
    isolates the multipath effect) and labelled
    [workload=swarm,mode=...]. *)

(** {1 Comparison} *)

type comparison = {
  single : Traffic_sim.report;
  multi_diversity : Traffic_sim.report;
  multi_adaptive : Traffic_sim.report;
  speedup_diversity : float;
      (** single-path mean FCT / diversity-multipath mean FCT *)
  speedup_adaptive : float;
}

val compare :
  single:Traffic_sim.report ->
  multi_diversity:Traffic_sim.report ->
  multi_adaptive:Traffic_sim.report ->
  comparison
