(** Monthly control-plane overhead of BGP and BGPsec at monitor ASes
    (the Fig. 5 baseline and comparison series).

    The paper measures BGP from one month of RouteViews updates and
    simulates BGPsec with a one-day re-beaconing period multiplied by
    30 (§5.2). Without access to RouteViews we synthesise the workload:

    - {e prefixes per AS}: Pareto-distributed (few ASes originate most
      prefixes; mean ≈ 11, matching global table size / AS count);
    - {e flap events per prefix per month}: Pareto-distributed (update
      churn concentrates on few prefixes), with a path-exploration
      amplification factor per event;
    - BGPsec updates carry a single prefix each (RFC 8205 forbids
      aggregation) and are re-originated daily.

    A RouteViews monitor contributes one BGP session (its full feed to
    the collector), so overhead at a monitor counts the updates the
    monitor itself emits on that single session: one update per
    prefix-flap event (times the exploration amplification), with the
    monitor's own best-route AS-path length. This per-session quantity
    is what SCION's per-interface beaconing traffic is compared
    against in Fig. 5. *)

type workload = {
  prefixes : int array;  (** prefixes originated per AS *)
  flaps_per_prefix : float array;  (** monthly flap events per prefix, per AS *)
}

val make_workload : ?prefix_mean:float -> Graph.t -> seed:int64 -> workload
(** Deterministic synthetic workload. Prefixes per AS: Pareto shape 1.1,
    scale 1 (mean 11), rescaled to mean [prefix_mean] (default 11.0)
    and capped at 20 000. Flap events per prefix per month: Pareto
    shape 1.25, scale 1.6 (mean 8). *)

type params = {
  churn_amplification : float;
      (** updates per flap event per exporting neighbor (path
          exploration) *)
  bgpsec_refresh_days : int;  (** one full-table refresh per day *)
}

val default_params : params
(** Churn amplification 2.5 (with 8 flaps per prefix, about 20 updates
    per prefix per month), 30 refresh days; BGPsec signatures are
    {!Wire.signature_bytes} long. *)

type result = {
  monitors : int array;
  bgp_bytes : float array;  (** per monitor, one month *)
  bgp_updates : float array;
  bgpsec_bytes : float array;
  bgpsec_updates : float array;
}

val monthly_overhead : Graph.t -> workload -> monitors:int list -> params -> result
(** One Gao–Rexford table per destination; both protocols accounted in
    the same pass. *)

val top_degree_monitors : Graph.t -> count:int -> int list
(** Highest AS-degree ASes, the stand-in for RouteViews peers. *)
