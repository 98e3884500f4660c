(** Table 1: path-management overhead comparison.

    The paper classifies every SCION control-plane component by the
    {e scope} of its communication (AS, ISD, global) and its
    {e frequency} (hours, minutes, seconds). We encode the taxonomy as
    data, derive the table from it, and optionally ground it with
    measured per-component traffic from a small end-to-end simulation. *)

type scope = As_scope | Isd_scope | Global_scope

type frequency = Hours | Minutes | Seconds

type component = {
  name : string;
  scope : scope;
  frequency : frequency;
  rationale : string;
}

val components : component list
(** The seven rows of Table 1, in paper order. *)

val render : unit -> string
(** The table in the paper's check-mark layout. *)

type measured = {
  component : string;
  messages : float;
  bytes : float;
}

val measure : ?obs:Obs.t -> ?jobs:int -> Exp_common.scale -> measured list
(** Run a small network end-to-end (core + intra-ISD beaconing, path
    registration, Zipf-weighted lookups with caching, one revocation)
    and report the per-component traffic that grounds the taxonomy.
    The control plane comes from {!Exp_common.control_plane}, which
    takes [obs] and [jobs]. *)

(** {1 The {!Scenario.Cli} face}

    Drive it through [scion_expt run table1] or via {!config} and
    {!run}. *)

type config = { scale : Exp_common.scale }

val config : Exp_common.scale -> config
(** Every run grounds the taxonomy with {!measure}; {!render} alone
    needs no simulation. *)

type result = { measured : measured list }

val name : string

val doc : string

val run : ?obs:Obs.t -> ?jobs:int -> config -> result

val to_json : result -> Obs_json.t
(** The taxonomy rows plus the measured traffic. *)

val print : result -> unit
(** The check-mark table, followed by the measured per-component
    traffic. *)
