(** Figure 6: path quality of the SCION path-selection algorithms and
    BGP on the core topology.

    For a sample of core AS pairs we compute, per algorithm, the
    max-flow over the union of the disseminated paths with unit
    capacity per inter-AS link. By Menger's theorem this single number
    is both Fig. 6a's minimum number of failing links that disconnects
    the pair and Fig. 6b's capacity in multiples of inter-AS links
    (§5.3 notes the equivalence).

    Implements {!Scenario.Cli}: drive it through [scion_expt run fig6]
    or directly via {!config} and {!run}. *)

(** Algorithms are identified structurally, not by display string, so
    renaming a label can never silently turn a headline check into
    [nan]. Storage limits are [int option]: [None] means unlimited (no
    [max_int] sentinel in this interface). *)
type algo_kind =
  | Bgp
  | Baseline of int  (** SCION baseline at the given storage limit *)
  | Diversity of int option
      (** SCION diversity; [None] = unlimited storage (∞ column) *)

type algo = {
  kind : algo_kind;
  name : string;  (** display string derived from [kind] *)
  flows : int array;  (** per sampled pair *)
}

type result = {
  scale : Exp_common.scale;
  pairs : (int * int) array;
  optimum : int array;
  algos : algo list;  (** BGP, baseline, diversity at each storage limit *)
}

type config = {
  scale : Exp_common.scale;
  seed : int64 option;  (** topology seed override (default §5.1 seed) *)
  storage_limits : int option list;
  beacon : Beaconing.config;
}

val config :
  ?seed:int64 ->
  ?storage_limits:int option list ->
  ?beacon:Beaconing.config ->
  Exp_common.scale ->
  config
(** [storage_limits] defaults to [\[Some 15; Some 30; Some 60; None\]]
    (∞ printed for [None]), matching Fig. 6. Every diversity run uses
    {!Beacon_policy.default_div_params}. *)

val name : string

val doc : string

val run : ?obs:Obs.t -> ?jobs:int -> config -> result
(** With [jobs > 1] the independent stages — the optimum min-cuts, the
    BGP flows, the baseline beaconing run and one diversity run per
    storage limit — execute on that many domains; the result is
    identical for every [jobs] value.

    With an enabled [obs] (default {!Obs.disabled}) the stages are
    timed as [fig6.*] phases and the beaconing runs instrumented. *)

val to_json : result -> Obs_json.t
(** Per-pair optimum cuts and, per algorithm, the flows array and
    capacity fraction (mean achieved/optimal capacity over the sampled
    pairs, the 82–99 % numbers of §5.3). *)

val print : result -> unit
(** Fig. 6a: mean achieved resilience grouped by optimal min-cut, plus
    the pair-count CDF. Fig. 6b: capacity CDFs and the fraction-of-
    optimum headline (Q2), plus the Q1 baseline-vs-BGP check. *)
