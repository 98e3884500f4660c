(** Resilience scenario: failure recovery under injected faults.

    Sweeps failure rate × beaconing algorithm over the core topology.
    Each cell runs two independent fault-injection trials through
    {!Fault_engine}: a seeded {!Fault_plan} mixing memoryless
    per-link failures (MTBF/MTTR) with one deterministic AS outage
    that blacks out every monitored pair homed on that AS, so the
    recovery distribution always has both regimes — fast SCMP-driven
    failovers to cached alternate paths, and blackout windows that
    only re-beaconing can close (§4.1, §5).

    Reported per cell: fault/affected/failover/blackout counts,
    summed blackout time, recovery-time quantiles (p50/p90/p99 over
    failover delays and blackout durations), revocation overhead in
    messages and bytes, and the post-run endpoint validation pass
    (pairs that deliver end-to-end over the surviving topology). A trial
    left failing {!Invariants.check_all} raises {!Invariants.Violated}.

    Deterministic in config: trials derive their plan seeds with
    {!Runner.job_seed}, run as independent jobs and aggregate in
    input order, so results — and printed output — are byte-identical
    at any [jobs] value. *)

type rate = {
  rate_name : string;
  mtbf_s : float;  (** per-link mean time between failures *)
  mttr_s : float;  (** per-link mean time to repair *)
}

type cell_result = {
  algo : Variant.t;
  rate : rate;
  trials : int;
  recovery : Recovery.summary;  (** summed over the cell's trials *)
  validated_pairs : int;
  validated_delivered : int;
  validated_failovers : int;
}

type result = {
  scale : Exp_common.scale;
  pairs : int;  (** monitored pairs per trial *)
  cells : cell_result list;
}

type config = { scale : Exp_common.scale; seed : int64 }

val config : ?seed:int64 -> Exp_common.scale -> config
(** Seed defaults to [0xFA17L]. The sweep itself is fixed: 2 trials
    per cell, low (6 h MTBF, 30 min MTTR) and high (2 h MTBF, 15 min
    MTTR) failure rates, storage-limited baseline (5) vs diversity
    (60), a 30 min AS outage starting at 1 h, and §5.1 beaconing over
    a halved (3 h) horizon so the sweep stays CI-sized. *)

include Scenario.Cli with type config := config and type result := result
