(** Convergence comparison (§5 note: "since there is no convergence
    phase in SCION, we cannot compare to BGP's convergence time. SCION
    path-segments are stable as soon as they are disseminated").

    We quantify that asymmetry with the event-driven BGP simulator:
    after initial convergence, fail a set of adjacencies and measure
    (a) how long BGP takes to re-converge and how many updates the
    exploration generates, and (b) what the same failure costs in
    SCION — one SCMP notification per affected flow and an immediate
    switch to an already-disseminated alternate path, with zero
    control-plane messages.

    Implements {!Scenario.Cli}: drive it through
    [scion_expt run convergence] or directly via {!config} and {!run}. *)

type failure_sample = {
  link : int;
  bgp_convergence_s : float;  (** quiescence time after the failure *)
  bgp_updates : int;  (** updates + withdrawals during exploration *)
  bgp_bytes : float;
  scion_failover_s : float;
      (** one-way SCMP delay + path switch at the endpoint *)
  scion_control_messages : int;  (** always 0: no dissemination needed *)
  scion_alternatives_ready : int;
      (** disseminated paths avoiding the failed link, already in the
          endpoint's possession: a {!Fault_engine.react} failover, ≥ 1 *)
}

type result = {
  initial_convergence_s : float;
  initial_updates : int;
  samples : failure_sample list;
}

type config = {
  scale : Exp_common.scale;
  n_failures : int;
  seed : int64;  (** failure-selection seed, not the topology seed *)
}

val config : ?n_failures:int -> ?seed:int64 -> Exp_common.scale -> config
(** [n_failures] defaults to 5, [seed] to the fixed selection seed. *)

val name : string

val doc : string

val run : ?obs:Obs.t -> ?jobs:int -> config -> result
(** Runs on the pruned core topology: BGP over the core graph (all-core
    links as peering), SCION beaconing with the diversity algorithm.

    Failure trials are independent: a cheap sequential pass selects the
    failed adjacencies from the beacon stores, then each trial measures
    BGP churn on a {e private} simulator brought to quiescence from
    scratch, so with [jobs > 1] the trials (and the initial-convergence
    measurement) run on that many domains with identical results at any
    [jobs] value.

    With an enabled [obs] (default {!Obs.disabled}) the BGP simulators
    and the beaconing run are instrumented and the stages timed as
    [convergence.*] phases. *)

val to_json : result -> Obs_json.t

val print : result -> unit
