(** Event-driven BGP / BGPsec simulator — the SimBGP stand-in (§5.1).

    A path-vector protocol over the AS graph with the paper's SimBGP
    configuration: a per-neighbor Minimum Route Advertisement Interval
    (15 s) and a per-update processing delay (5 ms). Each AS originates
    one prefix (identified with the AS index); the decision process is
    Gao–Rexford (customer > peer > provider, then shortest AS path,
    then lowest neighbor id) with standard export filtering. BGP
    sessions are per neighbor AS: parallel links only affect session
    liveness.

    The simulator measures what the closed-form {!Bgp_routes} model
    assumes: update counts and bytes during initial convergence and
    after link failures (path-exploration churn), and convergence
    times — the quantity SCION does not have, since path segments are
    stable upon dissemination (§5). *)

type config = {
  mrai : float;  (** seconds, 15.0 in §5.1 *)
  processing_delay : float;  (** per received update, 0.005 in §5.1 *)
  propagation_delay : float;  (** per inter-AS hop *)
  bgpsec : bool;
      (** account RFC 8205 update sizes ({!Wire.bgpsec_update_bytes})
          instead of RFC 4271 *)
  full_transit : bool;
      (** disable Gao–Rexford export filtering and class preference
          (shortest-AS-path routing) — used on all-core subgraphs where
          every AS provides transit, mirroring {!Bgp_routes.shortest_multipath} *)
}

val default_config : config
(** MRAI 15 s, processing 5 ms, propagation 10 ms, plain BGP. *)

type t

val create : ?obs:Obs.t -> Graph.t -> config -> t
(** Build per-AS RIBs and BGP sessions; nothing is announced yet.
    Raises [Invalid_argument] unless [mrai], [processing_delay] and
    [propagation_delay] are finite and [>= 0].

    With an enabled [obs] context (default {!Obs.disabled}) the
    simulator maintains
    [bgp_{updates,withdrawals,bytes}_sent_total] counters labeled
    [{proto}] ([bgp] or [bgpsec]) and emits [bgp]-category trace
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

val run_to_quiescence : ?max_time:float -> t -> float
(** Drain all events (bounded by [max_time], default 3600 s of virtual
    time); returns the virtual time of quiescence. *)

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
