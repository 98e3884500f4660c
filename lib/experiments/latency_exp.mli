(** Latency-aware path construction (§4.2, "Optimizing for other
    Criteria" — implemented here as the paper leaves it for future
    work).

    On the core topology with geo-derived link latencies, compare the
    best (lowest-latency) disseminated path per AS pair under the
    baseline, the diversity algorithm, and the latency-aware variant,
    against the true latency optimum (Dijkstra). Reported as latency
    stretch = best stored / optimal.

    Implements {!Scenario.Cli}: drive it through
    [scion_expt run latency] or directly via {!config} and {!run}. *)

type algo_result = {
  name : string;
  stretch : float array;  (** per sampled pair; [infinity] if no path *)
  mean_stretch : float;
  p95_stretch : float;
  overhead_bytes : float;
}

type result = {
  scale : Exp_common.scale;
  pairs : (int * int) array;
  algos : algo_result list;
}

type config = {
  scale : Exp_common.scale;
  seed : int64 option;  (** topology seed override (default §5.1 seed) *)
  beacon : Beaconing.config;
}

val config : ?seed:int64 -> ?beacon:Beaconing.config -> Exp_common.scale -> config
(** [beacon] overrides the §5.1 beaconing configuration. *)

val name : string

val doc : string

val run : ?obs:Obs.t -> ?jobs:int -> config -> result
(** With [jobs > 1] the three algorithm stages (beaconing + stretch
    evaluation each) run on that many domains; the result is identical
    for every [jobs] value. With an enabled [obs] (default
    {!Obs.disabled}) the beaconing runs are instrumented and timed as
    [latency.*] phases. *)

val to_json : result -> Obs_json.t

val print : result -> unit
(** One row per algorithm: mean and p95 latency stretch plus absolute
    control-plane overhead. *)
