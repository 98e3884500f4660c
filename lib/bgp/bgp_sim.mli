(** Event-driven BGP simulator — the SimBGP stand-in (§5.1).

    A path-vector protocol over the AS graph with the paper's SimBGP
    configuration: a per-neighbor Minimum Route Advertisement Interval
    of 15 s and a per-update processing delay of 5 ms, plus a 10 ms
    per-hop {!propagation_delay}. Updates are plain BGP (RFC 4271,
    {!Wire.bgp_update_bytes}). Each AS originates one prefix
    (identified with the AS index). Every AS provides transit to every
    neighbor: each best route is exported on every session, and the
    decision process picks the shortest AS path, the own prefix first,
    ties to the lowest next-hop AS. This is the all-core regime of
    {!Bgp_routes.shortest_multipath}; Gao–Rexford routing lives in the
    closed-form {!Bgp_routes}. BGP sessions are per neighbor AS:
    parallel links only affect session liveness.

    The simulator measures what the closed-form model assumes: update
    counts and bytes during initial convergence and after link
    failures (path-exploration churn), and convergence times — the
    quantity SCION does not have, since path segments are stable upon
    dissemination (§5). *)

val propagation_delay : float
(** 0.010 s per inter-AS hop. *)

type t

val create : ?obs:Obs.t -> Graph.t -> t
(** Build per-AS RIBs and BGP sessions; nothing is announced yet.

    With an enabled [obs] context (default {!Obs.disabled}) the
    simulator maintains
    [bgp_{updates,withdrawals,bytes}_sent_total] counters labeled
    [{proto="bgp"}] and emits [bgp]-category trace
    events (per-message sends and best-route changes at [Debug],
    convergence epochs at [Info]). Its event queue counts fired events
    in [des_events_total], samples its depth into the
    [des_queue_depth] histogram every 64 of its own events (other
    simulators on the same [obs] do not shift the sampling) and emits a
    [des]-category [Debug] trace event per firing. *)

val now : t -> float
(** Current virtual time in seconds. Events scheduled for the same
    instant fire in scheduling order. *)

val announce_all : t -> unit
(** Every AS originates its own prefix at the current virtual time. *)

val withdraw_origin : t -> origin:int -> unit
(** The origin stops announcing its prefix (route withdrawal cascade). *)

val fail_link : t -> int -> unit
(** Take one link down at the current time. If it was the session's
    last parallel link, both ends drop the routes learned over it and
    re-run their decision processes. *)

val run_to_quiescence : t -> float
(** Drain all events, for at most 3600 s of virtual time; returns the
    virtual time of quiescence. *)

val best_path : t -> src:int -> prefix:int -> int list option
(** Current best AS path [src; ...; prefix origin]. *)

val adj_rib_in_paths : t -> src:int -> prefix:int -> int list list
(** All paths currently offered by neighbors (BGP multipath pool). *)

type stats = {
  updates_sent : int;
  withdrawals_sent : int;
  bytes_sent : float;
  updates_received_per_as : int array;
  bytes_received_per_as : float array;
  last_route_change : float;  (** virtual time of the latest best-route
                                  change anywhere — convergence marker *)
}

val stats : t -> stats

val reset_stats : t -> unit
(** Zero the counters (e.g., after initial convergence, before failing
    a link, so churn is measured in isolation). *)
