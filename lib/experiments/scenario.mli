(** The unified experiment interface.

    Every experiment implements this one module type instead of an
    ad-hoc [run] signature: a [config] value fully describes a run, a
    [result] value fully describes its outcome, and the three
    operations — execute, serialise, pretty-print — are uniform. This
    is what lets the CLI drive every experiment through the same
    [run <scenario>] code, and lets tests compare [jobs:1] against
    [jobs:n] runs for every scenario the same way.

    The command line is not part of this interface: each scenario's
    [scion_expt run] subcommand builds its [config] from exactly the
    flags that config builder reads, so a flag the scenario would
    ignore is a usage error.

    Implementations must be {e deterministic in [config]}: two runs
    with equal configs (at any [jobs] value) must produce equal
    results. Parallelism, therefore, is an execution hint, not part of
    the experiment's identity.

    A [config] holds only the knobs the CLI or the benchmark sets, plus
    sizing knobs with which tests keep a run affordable; a test never
    justifies a mode. The paper's fixed parameters (§5.1 storage
    limits, horizons, diversity weights) are constants of the scenario
    and documented on its [config] builder. *)

(** An experiment plus what the CLI needs to drive it generically:
    deterministic, parallelisable, serialisable. *)
module type Cli = sig
  type config
  (** Complete description of one run. *)

  type result
  (** Complete outcome of one run. *)

  val name : string
  (** Scenario name, the subcommand of [run] ([fig5], [table1], …). *)

  val doc : string
  (** One-line description, listed in [run --help]. *)

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
end
