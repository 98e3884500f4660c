(** Path servers (§2.2, "Path Segment Dissemination").

    A core AS's path server stores the intra-ISD (down-path) segments
    registered by the leaf ASes of its ISD and the core-path segments
    its beacon server constructed. Lookups are pull-based; the
    infrastructure resembles DNS, with caching at non-core path servers
    and endpoints. *)

type t

val create : ?obs:Obs.t -> ?per_leaf_limit:int -> unit -> t
(** [per_leaf_limit] caps registered segments per destination leaf AS
    (default 60, matching the PCB storage limit in §5.1).

    With an enabled [obs] context (default {!Obs.disabled}) the server
    maintains [path_server_lookup_{hits,misses}_total] counters labeled
    [{kind}] ([down] or [core]; a hit is a lookup returning at least
    one valid segment), plus [path_server_registrations_total] and
    [path_server_revoked_segments_total], and emits
    [path_server]-category trace events (per-lookup at [Debug],
    revocations at [Warn]). *)

val register_down : t -> now:float -> Segment.t -> bool
(** Register a down-path segment under its leaf AS. Returns [false] if
    it was a duplicate, expired, or rejected by the per-leaf cap.
    Registration overhead is accounted in {!stats}. *)

val register_core : t -> now:float -> Segment.t -> bool
(** Register a core-path segment under its remote (origin) core AS. *)

val register_best_core :
  t ->
  Graph.t ->
  Fwd_keys.t ->
  now:float ->
  holder:int ->
  k:int ->
  Pcb.t list ->
  unit
(** Terminate at [holder] and {!register_core} the first [k] PCBs of
    [paths] in list order (shortest first, as {!Beacon_store.paths}
    returns them), stopping early at a PCB without hops. Keeps a path server
    stocked with a pair's current best segments so revocations have
    real registrations to purge. *)

val lookup_down : t -> now:float -> leaf:int -> Segment.t list
(** Valid down-path segments to [leaf], sorted by segment key (a total
    order, so replies never depend on internal hash-table layout);
    counts one lookup. *)

val lookup_core : t -> now:float -> remote:int -> Segment.t list
(** Valid core-path segments to the remote core AS [remote], sorted
    like {!lookup_down}. *)

val revoke_link : t -> link:int -> int
(** Path revocation (§4.1): drop all segments containing the failed
    link. Returns the number of segments revoked. *)

type stats = {
  registrations : int;
  registration_bytes : int;
  lookups_down : int;
  lookups_core : int;
  reply_segments_down : int;
  reply_segments_core : int;
  revocations : int;
  revoked_segments : int;
}

val stats : t -> stats

val total_segments : t -> int

val iter : t -> (core:bool -> idx:int -> Segment.t -> unit) -> unit
(** Every registered segment, valid or not: down-path buckets (indexed
    by leaf) before core-path buckets (indexed by origin), each in
    bucket-index and then segment-key order — the order {!write}
    emits. *)

(** {1 Checkpointing} *)

val write : Snapshot.writer -> t -> unit
(** The whole server, registry plus counters, in {!iter} order: equal
    servers write equal bytes regardless of registration order. *)

val read : Snapshot.reader -> t
(** Inverse of {!write}. Restoring does {e not} re-count registrations
    — stats come back exactly as written — and the restored server
    exports no obs counters. Raises {!Snapshot.Corrupt} on a
    per-leaf limit below 1, buckets or segment keys out of strictly
    increasing order, or a bucket that is empty, over the limit or
    holds a segment of another leaf (down) or origin (core). *)
