(** The unified experiment interface.

    Every experiment ({!Scenarios.all}) implements this one module type
    instead of an ad-hoc [run] signature: a [config] value fully
    describes a run, a [result] value fully describes its outcome, and
    the three
    operations — execute, serialise, pretty-print — are uniform. This
    is what lets the CLI drive any experiment through one generic
    [run <scenario>] subcommand, lets the registry ({!Scenarios.all})
    enumerate them as first-class modules, and lets tests compare
    [jobs:1] against [jobs:n] runs for every scenario the same way.

    Implementations must be {e deterministic in [config]}: two runs
    with equal configs (at any [jobs] value) must produce equal
    results. Parallelism, therefore, is an execution hint, not part of
    the experiment's identity.

    A [config] holds only the knobs some caller sets (the CLI, a test
    or the benchmark); the paper's fixed parameters (§5.1 storage
    limits, horizons, diversity weights) are constants of the scenario
    and documented on its [config] builder. *)

type cli = {
  scale : Exp_common.scale;  (** the shared [--scale] flag *)
  seed : int64 option;  (** the shared [--seed] flag, if given *)
  sup : Supervise.cli;
      (** the shared supervision flags (checkpointing, resume, retries,
          failure injection); {!Supervise.default_cli} for scenarios
          that do not checkpoint *)
  flows : int option;
      (** the traffic scenario's [--flows] flag (flows per strategy
          cell); [None] everywhere else *)
  strategy : Strategy.t option;
      (** the traffic scenario's [--strategy] flag: restrict the
          demand sweep to one path-selection strategy *)
  capacity_scale : float option;
      (** the traffic scenario's [--capacity-scale] flag: uniform
          link-capacity multiplier *)
}
(** The shared command-line inputs the generic driver can offer a
    scenario; {!Cli.config_of_cli} turns them into the scenario's own
    config (ignoring what does not apply — e.g. the SCIONLab topology
    is fixed, so it ignores [scale]). *)

(** An experiment plus what the CLI needs to drive it generically:
    deterministic, parallelisable, serialisable. *)
module type Cli = sig
  type config
  (** Complete description of one run. *)

  type result
  (** Complete outcome of one run. *)

  val name : string
  (** Scenario name for [run <scenario>] ([fig5], [table1], …). *)

  val doc : string
  (** One-line description, listed under SCENARIOS in [run --help]. *)

  val config_of_cli : cli -> config
  (** Default config from the shared flags. *)

  val run : ?obs:Obs.t -> ?jobs:int -> config -> result
  (** Execute. [obs] (default {!Obs.disabled}) collects metrics, phase
      timers and traces; [jobs] (default 1) bounds the number of
      domains used for the experiment's independent sub-computations.
      Neither the result nor the metrics recorded into [obs] may depend
      on [jobs]. *)

  val to_json : result -> Obs_json.t
  (** Machine-readable result document (the [--out] export). *)

  val print : result -> unit
  (** The paper-style rendering on stdout. *)

  val exit_code : result -> int
  (** Process exit code the driver should end with: [0] for a fully
      successful run. Supervised scenarios return nonzero when more
      jobs failed than the configured tolerance ([--max-failures]). *)
end
