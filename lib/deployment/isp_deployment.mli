(** ISP deployment models (§3.3, Figure 2).

    Inter-ISP SCION connectivity is realised per link as a native
    layer-2 cross-connect, a Router-on-a-stick IP short-cut over the
    existing cross-connection, or a redundant combination of both. An
    IP tunnel across the public Internet (bridging SCION islands) is
    also modelled — it is exactly what the paper rules out for the
    production network because it inherits BGP's vulnerabilities. *)

type underlay =
  | Native_cross_connect
      (** dedicated L2 circuit between SCION border routers (Fig. 2a) *)
  | Router_on_a_stick of { host_routes : bool }
      (** SCION-in-IP over the existing cross-connection (Fig. 2b);
          with static host routes the link needs no BGP *)
  | Ip_tunnel
      (** SCION-in-IP across the public (BGP-routed) Internet *)

type link_deployment = {
  link : int;  (** link id in the topology *)
  underlay : underlay;
  queueing_discipline : bool;
      (** reserved minimum bandwidth for SCION on shared links (§3.2) *)
}

type plan = link_deployment list

val uniform_plan : Graph.t -> underlay -> plan
(** Deploy every link with the same underlay (queueing enabled on
    shared underlays). *)

val scion_connected : Graph.t -> plan -> bgp_failed:bool -> ip_flood:bool -> bool
(** Is the SCION network still connected (single component over the
    links still providing SCION service)? A link survives a BGP failure
    when it is native or host-routed Router-on-a-stick (tunnels do not),
    and an IP flood when it is native or shares its underlay under the
    queueing discipline. The paper's BGP-free deployment keeps this
    true under [bgp_failed]. *)

val connectivity_under_bgp_failure : Graph.t -> plan -> float
(** Fraction of AS pairs that remain connected over surviving links
    when BGP fails (1.0 for a fully BGP-free plan). *)
