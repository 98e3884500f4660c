(** Flow-level traffic demand.

    The workload engine needs {e who talks to whom, how much, and
    when}. Following the paper's §4.1 observation that Internet
    traffic concentrates on few popular destinations, demand is
    Zipf-shaped twice over: every AS carries a population of endpoints
    proportional to a Zipf weight of its degree rank, and destination
    popularity follows an independent Zipf law over the same ranking —
    so a handful of well-connected ASes source and sink most flows,
    exactly the regime in which path-selection strategy choices become
    visible on link load.

    Flow attributes are derived {e per flow index} from the SplitMix64
    partitioning ({!Runner.job_seed}): flow [i]'s arrival time, size
    and endpoint pair depend only on [(seed, i)], never on generation
    order — the property that keeps sharded and resumed runs
    byte-identical. *)

type params = {
  n_pairs : int;  (** distinct endpoint pairs demand concentrates on *)
  flows : int;  (** flows generated over the horizon *)
  mean_size_mbit : float;  (** mean flow size (Pareto-distributed) *)
  pareto_alpha : float;  (** Pareto shape; must be > 1 *)
  horizon_s : float;  (** arrivals fall uniformly in [0, horizon) *)
  seed : int64;
}

val default_params : params
(** 200 pairs, 10 000 flows, 40 Mbit mean size with shape 1.5,
    one-hour horizon. The Zipf exponents are fixed: 1.1 for popularity
    across pairs, 1.0 for population across degree ranks. *)

type t

type flow_spec = {
  arrival_s : float;
  size_mbit : float;
  pair : int;  (** index into {!pairs} *)
}

val create : Graph.t -> params -> t
(** Sample the endpoint-pair set against the graph. Raises
    [Invalid_argument] on a graph with fewer than two ASes or
    non-positive parameters. *)

val params : t -> params

val pairs : t -> (int * int) array
(** The distinct (src, dst) AS pairs, most popular first. Pair [k]
    receives a Zipf(1.1) share of the flows. *)

val sorted_flows : t -> flow_spec array
(** All flows, each a pure function of [(seed, i)] for its index [i],
    sorted by arrival time (ties by flow index) — the admission order
    the simulator consumes. Computed once by {!create};
    the array is shared, so callers must not mutate it. *)

val config_key : t -> string
(** Canonical description of the demand (params + pair set) for
    checkpoint schema fingerprints. *)
