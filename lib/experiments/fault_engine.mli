(** Fault-gated beaconing under a compiled fault plan (§4.1).

    A {!driver} couples a stepwise {!Beaconing.engine} to the plan. Each
    {!step} replays the plan up to the round's start; on a real
    link-down transition it drops every PCB over the link from the
    beacon stores and revokes every segment over it at the path server;
    it then runs the round with dissemination over dead links suppressed
    (the [link_up] gate of {!Beaconing.engine_round}), registers each
    monitored pair's best paths at the path server and hands the pair's
    path list to the caller. {!Soak} and {!run} are its callers. *)

type config = {
  graph : Graph.t;
  beacon : Beaconing.config;
  plan : Fault_plan.t;
  pairs : (int * int) array;  (** monitored (source AS, origin AS) pairs *)
}

type reaction =
  | Unaffected  (** no path crosses a failed link *)
  | Failover of { delay_s : float; spares : int }
      (** to one of [spares] paths that avoid the failure *)
  | Blackout  (** every path crosses a failed link *)

val react : (int -> bool) -> Pcb.t list -> reaction
(** [react failed paths]: what a source using [paths] does when the
    links satisfying [failed] go down (§4.1). It fails over once the
    SCMP notification has travelled back from the failure: 10 ms
    ({!Bgp_sim.propagation_delay}) per hop up to the last failed link of
    the first affected path. Used by {!run} and by convergence. *)

val revocation : Graph.link -> now:float -> notified:int -> int * int
(** [revocation lk ~now ~notified] is the [(messages, bytes)] the
    failure of [lk] costs the control plane (§4.1): one SCMP link-failure
    notification ({!Scmp.link_failure}, from the link's [a] end) to each
    of the [notified] endpoints whose paths crossed the link, plus one
    to the path server. Used by {!run} and by Table 1. *)

(** {1 The driver} *)

type driver

type counts = {
  link_failures : int;  (** real down transitions (refcount 0→1) *)
  link_repairs : int;
  pcbs_dropped : int;  (** PCBs dropped from beacon stores *)
  segments_revoked : int;  (** segments revoked at the path server *)
}

val driver : ?obs:Obs.t -> config -> Path_server.t -> register:int -> driver
(** Round 0, all links up; [obs] instruments the engine. Each step
    registers the best [register] paths of every pair at the server. *)

val step :
  ?on_down:(now:float -> link:int -> int * int -> unit) ->
  ?on_up:(now:float -> link:int -> unit) ->
  driver ->
  round:int ->
  (now:float -> int -> Pcb.t list -> unit) ->
  unit
(** [step d ~round on_pair] runs [round] (rounds in increasing order),
    then [on_pair ~now i paths] for each pair index [i]. On a failure,
    [on_down ~now ~link] is applied {e before} the link is invalidated
    (it still sees every path over it) and the function it returns
    after, to [(dropped_pcbs, revoked_segments)]. *)

val engine : driver -> Beaconing.engine

val path_server : driver -> Path_server.t

val counts : driver -> counts

val invariant_ctx : driver -> now:float -> Invariants.ctx

val write : Snapshot.writer -> driver -> unit
(** Cursor, counts, engine ({!Beaconing.write}: [Baseline] only), link
    state and path server. *)

val read : Snapshot.reader -> config -> register:int -> driver
(** Inverse of {!write}. Raises {!Snapshot.Corrupt} on malformed bytes
    or a snapshot inconsistent with the config. *)

(** {1 Resilience trials} *)

type result = {
  recovery : Recovery.summary;
  violations : Invariants.violation list;  (** of the final state *)
  validated_pairs : int;
  validated_delivered : int;  (** pairs delivering end-to-end *)
  validated_failovers : int;  (** SCMP-triggered path switches *)
}

val run : ?obs:Obs.t -> config -> result
(** One trial: the driver runs every round (path server limit 60,
    {!Beacon_policy.dissemination_limit} segments per pair) and replays
    the plan to the duration. Each failure records every pair's
    {!react}ion in a {!Recovery} account, keyed by pair (a blackout ends
    at the first round that finds a path), and one {!revocation}. A
    validation pass then sends from an {!Endpoint} per pair over the
    final stores, with still-down links failed at the routers.

    An enabled [obs] instruments the engine and path server, receives
    [fault] trace events ([Warn] down, [Info] up) and the account. *)
