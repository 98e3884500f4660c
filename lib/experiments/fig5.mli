(** Figure 5: distribution of one-month control-plane overhead at the
    monitors, relative to BGP, for BGPsec, SCION core beaconing
    (baseline and diversity-based) and SCION intra-ISD beaconing.

    BGP and BGPsec run on the full topology; SCION core beaconing runs
    on the pruned core; intra-ISD beaconing runs on the large ISD. The
    6-hour beaconing simulations are extrapolated to 30 days exactly as
    in §5.2.

    Implements {!Scenario.Cli}: drive it through [scion_expt run fig5]
    or directly via {!config} and {!run}. *)

type series = {
  name : string;
  ratios : float array;  (** per-monitor overhead relative to BGP *)
  summary : Stats.five_number;
}

type result = {
  scale : Exp_common.scale;
  bgp_bytes : float array;  (** absolute monthly bytes per monitor *)
  series : series list;
  core_ases : int;
  full_ases : int;
  isd_ases : int;
}

type config = {
  scale : Exp_common.scale;
  seed : int64 option;  (** topology seed override (default §5.1 seed) *)
  beacon : Beaconing.config;
}

val config : ?seed:int64 -> ?beacon:Beaconing.config -> Exp_common.scale -> config
(** [beacon] overrides the §5.1 beaconing configuration (used by the
    benchmark to run shorter horizons). Each run sets its own variant:
    baseline (60) and diversity (60) on the core, baseline (60) in the
    ISD. *)

val name : string

val doc : string

val run : ?obs:Obs.t -> ?jobs:int -> config -> result
(** With [jobs > 1] the four independent stages — BGP/BGPsec
    accounting, baseline beaconing, diversity beaconing, intra-ISD
    beaconing — run on that many domains; the result is identical for
    every [jobs] value.

    With an enabled [obs] context (default {!Obs.disabled}) the stages
    are timed as [fig5.*] phases (the core runs as {!Variant.phase}
    phases), the three beaconing runs are
    instrumented (see {!Beaconing.run}) and each series' per-monitor
    ratio distribution is recorded as a [fig5_overhead_ratio{series}]
    histogram. *)

val to_json : result -> Obs_json.t
(** Topology sizes, absolute BGP bytes and each series' five-number
    summary plus raw per-monitor ratios. *)

val print : result -> unit
(** Paper-style rows: one series per protocol with the five-number
    summary of the per-monitor ratio distribution, plus the Q3
    headline checks (orders of magnitude). *)
