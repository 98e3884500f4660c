(** Per-trial fault-injection engine.

    Couples one beaconing run to a compiled fault plan and closes the
    failure→reaction→recovery loop of §4.1:

    - before each beaconing round, {!Link_state.replay} applies the
      plan's events up to that round's start time (and, after the
      last round, up to the run's duration);
    - on a real link-down transition, beacon stores expire every PCB
      over the link ({!Beacon_store.drop_link}), the path server
      revokes affected segments ({!Path_server.revoke_link}), and the
      adjacent border router's {!Scmp} link-failure notification is
      accounted to every monitored pair that was using the link;
    - monitored pairs fail over to cached alternate paths when they
      have one (recovery = the SCMP notification delay) or enter a
      blackout until re-beaconing finds a new path (recovery = the
      blackout duration, only re-beaconing can end it);
    - dissemination over dead links is suppressed by the [link_up]
      gate of every {!Beaconing.engine_round}, so the control plane
      routes around failures instead of advertising them.

    After the run, a validation pass builds a {!Control_service} from
    the final stores and drives an {!Endpoint} per monitored pair over
    a network whose still-down links are failed, counting end-to-end
    deliveries and dataplane failovers.

    Everything is deterministic: the plan compiles to a fixed event
    sequence and rounds are the only scheduling interleaving. *)

type config = {
  graph : Graph.t;
  beacon : Beaconing.config;
  plan : Fault_plan.t;
  pairs : (int * int) array;  (** monitored (src, dst) pairs *)
}

type result = {
  recovery : Recovery.summary;
  validated_pairs : int;
  validated_delivered : int;
      (** pairs whose endpoint delivered a packet end-to-end in the
          post-run validation pass *)
  validated_failovers : int;
      (** dataplane failovers (SCMP-triggered path switches) the
          validation endpoints performed *)
}

val run : ?obs:Obs.t -> config -> result
(** With an enabled [obs] (default {!Obs.disabled}): the beaconing
    and path-server instrumentation attach to it, fault
    transitions emit [fault]-category trace events ([Warn] down,
    [Info] up) and {!Recovery.observe} exports the trial's counters
    and histograms on completion. *)

val failover_delay_s : (int -> bool) -> Pcb.t list -> float
(** [failover_delay_s failed paths] is how long a source using [paths]
    takes to fail over once the links satisfying [failed] go down (§4.1):
    the SCMP notification travels back from the failure at 10 ms per
    hop, the propagation delay BGP is timed with
    ({!Bgp_sim.propagation_delay}), and the source switches to an
    already-disseminated path at once. The hop count is the 1-based
    position of the last failed link on the first path in [paths] that
    has one, and 1 when no path is affected. Used by the fault engine
    and by the convergence experiment. *)

val invalidate_link :
  Beacon_store.t array -> Path_server.t -> link:int -> int * int
(** [invalidate_link stores ps ~link] is what a link failure takes out
    of the control plane: every PCB over [link] in [stores]
    ({!Beacon_store.drop_link}), then every segment over it at [ps]
    ({!Path_server.revoke_link}). Returns [(dropped_pcbs,
    revoked_segments)]. *)

val revocation : Graph.link -> now:float -> notified:int -> int * int
(** [revocation lk ~now ~notified] is the [(messages, bytes)] the
    failure of [lk] at [now] costs the control plane (§4.1): one SCMP
    link-failure notification ({!Scmp.link_failure}, reported by the
    link's [a] end) to each of the [notified] endpoints whose paths
    crossed the link, plus the one that reaches the path server. Used
    by the fault engine and by Table 1. *)
