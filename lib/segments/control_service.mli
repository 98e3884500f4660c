(** The control service: glue between beaconing outcomes and the path
    lookup infrastructure (§2.2).

    After core and intra-ISD beaconing have run, every AS's beacon
    store holds PCBs. The control service terminates them into path
    segments, registers down-path segments at the core path server of
    their origin AS and core-path segments at the local core AS's path
    server, and resolves end-to-end paths on behalf of endpoints:
    up-segments from the local store, core- and down-segments fetched
    from path servers (with caching at the local server). *)

type t

val build :
  core:Beaconing.outcome ->
  intra:Beaconing.outcome ->
  unit ->
  t
(** Both outcomes must be runs over the {e same} graph (core beaconing
    over core links, intra-ISD beaconing over provider–customer links).
    Segments are registered as of the end of the beaconing runs. Raises
    [Invalid_argument] if the graphs differ. *)

val keys : t -> Fwd_keys.t
(** The forwarding-key registry routers validate hop fields against. *)

type segments = {
  up : Segment.t list;
  core : Segment.t list;
  down : Segment.t list;
}

val lookup : t -> src:int -> dst:int -> segments
(** The segments {!resolve} combines for an endpoint in [src] towards
    [dst]: [src]'s up segments (none if [src] is core), the core
    segments from [src]'s core ASes to [dst]'s ISD cores, and [dst]'s
    down segments (none if [dst] is core), fetched from the path
    servers. *)

val resolve : t -> src:int -> dst:int -> Fwd_path.t list
(** Full path resolution for an endpoint in [src] towards [dst]:
    fetches core segments (from the local ISD core) and down segments
    (from the destination's registering core ASes), combines, and
    returns paths sorted by length. Lookup traffic is accounted in the
    underlying path servers' stats. *)

val revoke_link : t -> link:int -> int
(** Propagate a link failure: revoke affected segments at every path
    server (§4.1). Returns total segments revoked. *)

val stats : t -> Path_server.stats
(** The stats of every core path server, summed. *)

val now : t -> float
