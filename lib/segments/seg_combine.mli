(** End-to-end path construction from path segments (§2.3).

    Hosts combine one up-path segment with fetched core- and down-path
    segments. Besides the full up+core+down combination, the combiner
    produces every special form SCION supports: segment subsets when an
    endpoint sits in a core AS, up+down joins at a shared core AS,
    shortcuts crossing over at a non-core AS common to both segments,
    and peering shortcuts over a peering link advertised in both
    segments. Combinations that would repeat an AS are discarded
    (cryptographic protections prevent unauthorised combinations in
    real SCION; the combiner simply never builds them). *)

val combine :
  Graph.t ->
  up:Segment.t list ->
  core:Segment.t list ->
  down:Segment.t list ->
  src:int ->
  dst:int ->
  Fwd_path.t list
(** All valid, deduplicated forwarding paths from [src] to [dst],
    sorted by AS-hop count; at most the 64 shortest. Every combination
    is enumerated, but only those that can make the cut are built.

    Expected segment orientations (as produced by {!Segment.terminate}):
    up segments have [leaf = src]; core segments are held by the local
    core AS (leaf) with [origin] the remote core AS; down segments have
    [origin] a core AS and [leaf = dst]. *)
