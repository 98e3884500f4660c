(** BGP route computation under the Gao–Rexford policy model.

    Stands in for the paper's RouteViews ground truth and SimBGP
    simulations (§5.1–5.2). For one destination AS the stable outcome
    of BGP's decision process under standard export rules is computed
    directly (three-stage BFS): every AS prefers customer routes over
    peer routes over provider routes, breaking ties by AS-path length;
    customer routes are exported to everyone, peer and provider routes
    only to customers. Links of type {!Graph.Core} are treated as
    peering for routing purposes. *)

type route_class = No_route | Self | Via_customer | Via_peer | Via_provider

type table = {
  dst : int;
  cls : route_class array;  (** best-route class per AS *)
  dist : int array;  (** AS-path length of the best route; -1 if none *)
  parent : int array;  (** next hop toward [dst]; -1 at [dst] / no route *)
}

val compute : Graph.t -> dst:int -> table
(** Stable routing state for one destination. *)

val path_to : table -> src:int -> int list option
(** Best AS path [src; ...; dst], if any. *)

val shortest_multipath : Graph.t -> src:int -> dst:int -> int list list
(** Policy-free variant used on all-core subgraphs, where every link is
    mutual transit: BGP-multipath (ECMP) semantics — each neighbor on a
    {e shortest} path to [dst] (avoiding [src]) contributes one path;
    longer alternatives are not installable in BGP multipath. *)
