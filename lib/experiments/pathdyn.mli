(** Path-dynamics soak: long-horizon beaconing under link churn, run
    under full supervision.

    Sweeps fault profile × PCB storage limit over the core topology.
    Each cell runs one {!Soak} trial for [rounds] §5.1 beaconing
    intervals (baseline algorithm, the 3 best segments per pair
    re-registered every round) while the profile's {!Fault_plan} flaps
    links, measuring the {e dynamics} of the path system rather than a
    single outage's recovery (the {!Resilience} scenario's job): completed
    path-lifetime distributions, consecutive-round path-set Jaccard
    stability, and per-AS-pair availability.

    This is also the proving ground for the supervision layer. Cells
    advance in [chunk]-round work units through {!Supervise.run_cells}
    — a crashing or watchdog-expired cell is retried with deterministic
    seeds and, past its retry budget, reported with zeroed statistics
    and in the {!Run_report} while every other cell completes.
    Between chunks the full state of every cell round-trips through
    {!Soak.encode}, so [--checkpoint-every N --checkpoint-dir D] writes
    resumable checkpoints (validated by {!Invariants} before hitting
    disk) and [--resume] continues from the newest one. Interrupting a
    run at {e any} checkpoint and resuming yields byte-identical stdout
    and [--metrics-out] JSON at any [--jobs] value. *)

type profile =
  | P_flapping of { period_s : float; down_fraction : float; n_links : int }
      (** [n_links] sampled links flap with the given period *)
  | P_stochastic of { mtbf_s : float; mttr_s : float }
      (** memoryless churn on every link *)

type cell_result = {
  profile : profile;
  limit : int;
      (** PCB storage limit of the cell; when the cell failed (it is
          then in [result.report]) every statistic below is zero *)
  availability_mean : float;
  availability_min : float;
  jaccard_mean : float;
  lifetime : Histogram.summary;  (** completed path lifetimes, rounds *)
  survivors : int;
  link_failures : int;
  link_repairs : int;
  pcbs_dropped : int;
  segments_revoked : int;
  lookups : int;
  registrations : int;
  total_pcbs : int;
  total_bytes : float;
}

type result = {
  scale : Exp_common.scale;
  rounds : int;
  pairs : int;
  failures_allowed : int;  (** the [--max-failures] tolerance *)
  cells : cell_result list;
  report : Run_report.t;  (** supervision outcome over all cells *)
}

type config = {
  scale : Exp_common.scale;
  seed : int64;
  rounds : int;  (** soak horizon in beaconing rounds *)
  chunk : int;  (** rounds per supervised work unit *)
  profiles : profile list;
  limits : int list;  (** PCB storage limits swept *)
  sup : Supervise.cli;
}

val config :
  ?seed:int64 ->
  ?rounds:int ->
  ?chunk:int ->
  ?profiles:profile list ->
  ?limits:int list ->
  ?sup:Supervise.cli ->
  Exp_common.scale ->
  config
(** Defaults: seed [0xFA17L], 24 rounds in chunks of 4, a 3-link
    flapping profile and a 12 h MTBF / 30 min MTTR stochastic profile,
    storage limits 5 and 20, supervision off ({!Supervise.default_cli}).
    Fixed: one trial per cell (labelled [<profile>/L<limit>/t0], fault
    plan seeded with [Runner.job_seed seed i] for cell [i]), the
    {!Exp_common.beacon_config} beaconing parameters, 3 segments
    re-registered per pair per round. *)

val soak_configs : config -> Soak.config array
(** The {!Soak} configuration of every cell, in cell order (profile-major,
    then storage limit), exactly as {!run} builds them: the core of
    [scale], its sampled pairs (seed [0xFA12L]), the profile's fault
    plan, the fixed beaconing parameters and [register_top = 3]. *)

include Scenario.Cli with type config := config and type result := result

val exit_code : result -> int
(** [1] when more cells failed than [sup.max_failures] tolerates, else
    [0]: the exit code of [scion_expt run pathdyn]. *)
