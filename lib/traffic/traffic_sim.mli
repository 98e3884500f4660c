(** Checkpointable flow-level traffic simulation.

    A slotted fluid model: time advances in fixed slots; at each slot
    boundary the fault events due by then are applied to a
    {!Link_state} ({!Link_state.replay}), new flows are admitted onto
    strategy-chosen paths, the load-adaptive strategy may re-select
    paths for in-flight flows, and every active flow then transfers at
    its fluid rate — each subflow gets the minimum over its path's
    links of capacity divided by subflow count, with no redistribution
    ({!Link_load.fair_share_into}), a flow's rate is the sum over its
    subflows, and completions inside the slot are interpolated
    exactly.

    A link failure under a flow's path, and an arrival whose preferred
    selection (over the full, possibly stale, offered set) touches a
    dead link, take one failover path: the flow chooses again through
    the same {!Strategy} among the live offered paths, booked in a
    {!Recovery} as in the resilience scenario, as a failover or, with
    no live path, a blackout until a link returns. All simulation state
    snapshots through {!Snapshot} combinators, so runs chunk,
    checkpoint and resume byte-identically like [pathdyn].

    A simulation also holds one {!Strategy.offer} per pair (path
    latencies and their order), derived from its config and never
    snapshotted: {!create} and {!restore} rebuild them. *)

type config = {
  graph : Graph.t;
  paths : Fwd_path.t array array;
      (** offered forwarding paths per demand pair (control-plane
          output; index parallel to [Demand.pairs demand]) *)
  latency_ms : float array;  (** per-link propagation latency *)
  demand : Demand.t;
  strategy : Strategy.t;
  width : int;  (** subflows per flow (1 = single-path) *)
  plan : Fault_plan.t;
  capacity_scale : float;
  slot_s : float;  (** slot duration (seconds of virtual time) *)
  slots : int;  (** total slots; should cover the arrival horizon
                    plus drain time *)
  adapt_margin : float;
      (** load-adaptive re-selection threshold: switch when the
          candidate's estimated rate exceeds [margin ×] the current
          rate (values [<= 1] disable re-selection; only the
          [Load_adaptive] strategy re-selects) *)
  metric_labels : (string * string) list;
}

type t

val create : config -> t
(** Raises [Invalid_argument] on inconsistent dimensions (offered
    path sets vs demand pairs, latency table vs links) or
    non-positive knobs. *)

val slot : t -> int
(** Slots fully processed so far. *)

val registry : t -> Registry.t
(** The run's metrics: [traffic_fct_s], [traffic_link_utilization]
    (populated by {!finish}), [traffic_path_switches] histograms and
    [traffic_flows_admitted_total] / [traffic_flows_completed_total]
    counters, all under [metric_labels]. *)

val recovery : t -> Recovery.t
(** Failover/blackout accounting (shared with the resilience
    scenario); export with {!Recovery.observe}. *)

val advance : ?watchdog:Watchdog.t -> t -> upto:int -> unit
(** Process slots up to [min upto slots] of the config. The watchdog
    deadline is checked at slot boundaries only, so an abandoned job
    leaves consistent state. *)

val finish : t -> unit
(** Terminal accounting after the last {!advance}: closes still-open
    blackouts ({!Recovery.finish}) and fills the link-utilization
    histogram. Must run exactly once, after which the simulation must
    not be advanced or snapshotted again. *)

(** {1 Checkpointing} *)

val encode : t -> string
(** Canonical binary snapshot of the mutable state (not the config). *)

val restore : config -> string -> t
(** Rebuild from {!encode} output; raises {!Snapshot.Corrupt} on
    malformed or config-inconsistent data. *)

val config_key : config -> string
(** Canonical text of everything that shapes the run — graph, offered
    paths, demand, strategy, fault plan, knobs — for checkpoint schema
    fingerprints. *)

(** {1 Results} *)

type report = {
  slots_done : int;
  flows_admitted : int;
  flows_rejected : int;
      (** arrivals on pairs the control plane produced no path for *)
  flows_completed : int;
  flows_unfinished : int;  (** still active (or stalled) at the end *)
  mean_fct_s : float;  (** over completed flows; [nan] when none *)
  fct : Histogram.summary;
  path_switches : int;  (** failovers + load-adaptive switches *)
  delivered_mbit : float;
  mean_utilization : float;  (** over links that carried traffic *)
  max_utilization : float;
  recovery : Recovery.summary;
}

val report : t -> report
(** Pure read of the current state (meaningful after {!finish}). *)
