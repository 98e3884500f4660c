(** Table 1: path-management overhead comparison.

    The paper classifies every SCION control-plane component by the
    {e scope} of its communication (AS, ISD, global) and its
    {e frequency} (hours, minutes, seconds). We encode the seven rows
    of the taxonomy as data, derive the table from it, and ground it
    with measured per-component traffic from a small end-to-end
    simulation. *)

type measured = {
  component : string;
  messages : float;
  bytes : float;
}

(** {1 The {!Scenario.Cli} face}

    Drive it through [scion_expt run table1] or via {!config} and
    {!run}. *)

type config = { scale : Exp_common.scale }

val config : Exp_common.scale -> config

type result = { measured : measured list }

val name : string

val doc : string

val run : ?obs:Obs.t -> ?jobs:int -> config -> result
(** Run a small network end-to-end (core + intra-ISD beaconing, path
    registration, Zipf-weighted lookups with caching, one revocation)
    and measure the per-component traffic that grounds the taxonomy.
    The control plane comes from {!Exp_common.control_plane}, which
    takes [obs] and [jobs]. *)

val to_json : result -> Obs_json.t
(** The taxonomy rows (component, scope, frequency, rationale), in
    paper order, plus the measured traffic. *)

val print : result -> unit
(** The check-mark table, followed by the measured per-component
    traffic. *)
