(** Two-stage parameter search for the diversity algorithm (§4.2).

    The paper selects α, β, γ and the score threshold per topology "by
    first performing a grid search with exponentially spaced values…
    followed by a grid search with linearly spaced values". The
    objective encodes §4.2's three goals: preserve connectivity,
    discover diverse paths, save bandwidth.

    Implements {!Scenario.Cli}: drive it through [scion_expt run tune]
    or directly via {!config} and {!run}. *)

type objective = {
  params : Beacon_policy.div_params;
  overhead_bytes : float;
  capacity_fraction : float;  (** achieved/optimal max-flow over pairs *)
  connectivity : float;  (** fraction of (AS, origin) with a valid path *)
  score : float;  (** composite; higher is better *)
}

val evaluate :
  ?obs:Obs.t ->
  ?duration_rounds:int ->
  ?lifetime_rounds:int ->
  Graph.t ->
  Beacon_policy.div_params ->
  objective
(** Run diversity beaconing with a deliberately short PCB lifetime so
    refresh behaviour is exercised, then score the outcome. *)

(** {1 The {!Scenario.Cli} face}

    The tuning topology is a fixed Caida-like core of 30 ASes, so
    [scion_expt run tune] takes no scale or seed. *)

type config = unit

val config : unit -> config

val name : string

val doc : string

type result = { cores : int; best : objective }

val run : ?obs:Obs.t -> ?jobs:int -> config -> result
(** {!evaluate} an exponential grid over (α, β, γ, threshold), then a
    linear refinement around the winner. With [jobs > 1] each stage
    evaluates its candidates on that many domains; the winner and the
    tie-breaking (earliest candidate) are identical at any [jobs]
    value. Deterministic. *)

val to_json : result -> Obs_json.t

val print : result -> unit
(** The winning parameters and their objective, as two summary lines. *)
