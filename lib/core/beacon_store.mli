(** Per-AS beacon database.

    Stores received PCBs grouped by origin AS, subject to the PCB
    storage limit of §5.1 (the maximum number of PCBs per origin AS a
    beacon server keeps). A new instance of an already-stored path
    replaces the older instance; when the per-origin budget is full, a
    new path is admitted only by evicting a worse entry. "Worse" is
    lexicographic: expired (or not yet valid) first, then more hops,
    then older, then the greater path key (a total order, so the
    evicted entry never depends on insertion order).

    Each origin's entries are kept in rank order (fewer hops, newer,
    smaller key) with two conservative validity bounds, so the worst
    entry is the last one while the bounds prove every entry valid.

    One decision serves built PCBs ({!insert}) and unbuilt extensions
    ({!offer}): it reads only the candidate's origin, timestamp,
    lifetime, hop count and links, and builds the PCB it keeps only once
    the outcome is not [Rejected]. A beaconing round offers every sent
    PCB this way, so the many a full store rejects are never built. *)

type t

type insert_outcome = Added | Refreshed | Evicted_other | Rejected

val create : limit:int -> t
(** [limit] may be [max_int] for unlimited storage. Raises
    [Invalid_argument] if [limit < 1]. *)

val insert : t -> now:float -> Pcb.t -> insert_outcome
(** Expired and not yet valid PCBs are rejected outright.

    Cost: into a full slot, the candidate is first compared with the
    worst entry, which is O(1) while the slot's validity bounds hold (a
    stored entry expiring or [now] moving back makes one O(limit) scan,
    which tightens them). A candidate that is not strictly better is
    rejected with no lookup, which is exact: an older instance of its
    own path would rank below it. Otherwise the lookup is a binary
    search for the candidate's hop-count group and a scan of that group
    comparing links, last link first. A kept PCB costs O(log limit)
    comparisons plus an O(limit) blit; no allocation but the PCB itself
    and, while a slot below its limit grows, its array. *)

val offer :
  t ->
  now:float ->
  Pcb.t ->
  link:int ->
  build:('a -> Pcb.t) ->
  'a ->
  insert_outcome
(** [offer t ~now parent ~link ~build x] is [insert t ~now ext] for the
    extension [ext] of [parent] over [link], decided without building
    it: the candidate has [parent]'s origin, timestamp and lifetime, one
    more hop and [parent]'s links followed by [link]. No key is built:
    key tie-breaks use {!Pcb.compare_extension_key}. [build x] must
    return that extension; it is called once when the outcome is not
    [Rejected], and never otherwise. Passing [x] rather than a closure
    lets a caller offer without allocating. *)

val paths : t -> now:float -> origin:int -> Pcb.t list
(** Valid stored PCBs from [origin] in rank order: (hop count, newer
    first, then path key), a total order the store maintains, so this
    filters without sorting. *)

val origins : t -> int list
(** Origins with at least one stored PCB (validity not re-checked). *)

val count : t -> origin:int -> int

val total : t -> int

val last_modified : t -> origin:int -> float
(** Time of the last successful insert for this origin; [neg_infinity]
    if never. Lets selection algorithms skip unchanged origins. *)

val prune_expired : t -> now:float -> unit

val drop_link : t -> link:int -> int
(** Expire every stored PCB whose path traverses [link] (a revocation,
    §4.1: the beacon server discards paths over a failed link so they
    are neither used nor re-disseminated). Returns the number of PCBs
    dropped. *)

val all_paths : t -> now:float -> Pcb.t list
(** Every valid stored PCB, sorted by (origin, path key) (used by the
    quality analysis and segment extraction). *)

(** {1 Checkpointing} *)

val write : Snapshot.writer -> t -> unit
(** The whole store — limit, then per origin (ascending) its last
    modification time and its PCBs in path-key order — so equal stores
    write equal bytes regardless of insertion order or hash-table
    layout. Validity is {e not} re-checked: expired entries are written
    too, so a restored store behaves identically (including future
    [prune_expired] calls). *)

val read : Snapshot.reader -> t
(** Inverse of {!write}: every subsequent operation behaves as on the
    original. Raises {!Snapshot.Corrupt} on a limit below 1, origins or
    PCB keys out of strictly increasing order, an undecodable PCB, a
    PCB filed under another origin, or a slot over the limit. *)
