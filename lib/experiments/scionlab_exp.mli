(** Appendix B: SCIONLab testbed evaluation (Figures 7, 8, 9).

    On the 21-core-AS SCIONLab-like topology we compare the measured
    path set (the testbed's current algorithm, modelled as the baseline
    with storage limit 5 — Appendix B notes the close match) against
    the baseline and the diversity algorithm at storage limits 5, 10,
    15 and 60, plus the optimum; and report the per-interface beaconing
    bandwidth distribution.

    Implements {!Scenario.Cli}: drive it through
    [scion_expt run scionlab] or directly via {!config} and {!run}.
    The SCIONLab topology is fixed, so the subcommand takes no scale or
    seed. *)

type algo = { name : string; flows : int array }

type result = {
  pairs : (int * int) array;  (** all core AS pairs *)
  optimum : int array;
  algos : algo list;
  iface_bps : float array;  (** Fig. 9: Bps per core interface, baseline(5) *)
}

type config = unit
(** Nothing to configure: the topology is fixed and every diversity
    run uses {!Beacon_policy.default_div_params}. *)

val config : unit -> config

val name : string

val doc : string

val run : ?obs:Obs.t -> ?jobs:int -> config -> result
(** With [jobs > 1] the independent stages — the all-pairs optimum
    cuts, the baseline(5) run and one diversity run per storage
    limit — execute on that many domains; the result is identical for
    every [jobs] value.

    With an enabled [obs] (default {!Obs.disabled}) the beaconing runs
    are instrumented, the stages timed as [scionlab.*] phases, and the
    Fig. 9 per-interface rate distribution is exported as the
    [scionlab_iface_bps] histogram. *)

val to_json : result -> Obs_json.t

val print : result -> unit
(** Figures 7/8 CDFs, the diversity-vs-measurement fractions, and the
    Fig. 9 bandwidth distribution summarised through {!Histogram}
    (p50/p90/p99 and the fraction of interfaces below 4 KB/s). *)
