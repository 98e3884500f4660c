(** A SCION beaconing variant: a path-construction algorithm plus a
    PCB storage limit. The experiments (Figs. 5–9, latency,
    convergence, resilience, pathdyn) name and configure their
    beaconing runs through this one value. *)

type t = {
  algorithm : Beacon_policy.t;
  limit : int option;  (** PCBs stored per origin; [None] = unlimited *)
}

val baseline : int option -> t

val diversity : int option -> t
(** The diversity algorithm with {!Beacon_policy.default_div_params}. *)

val config : Beaconing.config -> t -> Beaconing.config
(** [config base v] is [base] with [v]'s algorithm and storage limit
    (unlimited is the engine's [max_int]). *)

val name : t -> string
(** ["Baseline (5)"], ["Diversity (∞)"], ["Latency-aware (60)"]. *)

val phase : string -> t -> string
(** [phase scenario v] names the phase that times [v]'s beaconing run,
    e.g. [fig6.beaconing.diversity.15] or [fig6.beaconing.diversity.inf]. *)
