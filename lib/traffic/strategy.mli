(** Pluggable path-selection strategies.

    Endpoints receive the [Fwd_path] set the control plane actually
    produced for their pair and must decide which path(s) to put a
    flow on. Following the axiomatic analysis of path-selection
    strategies, three archetypes are implemented:

    - {e latency-greedy} — always the lowest-latency paths; optimal
      for an isolated flow, herds popular pairs onto the same links;
    - {e diversity-maximizing} — a greedy maximally link-disjoint
      subset, the BitTorrent-over-SCION recipe for aggregating
      capacity across disjoint bottlenecks;
    - {e load-adaptive} — maximizes the admission-rate estimate from
      {!Link_load}, i.e. steers by congestion feedback.

    Selection is a deterministic function of the offered set, the
    latency table and the current link loads only: the scratch a
    {!ctx} carries never outlives a call, which is what makes sharded
    runs reproducible. *)

type t = Latency_greedy | Diversity_max | Load_adaptive

val all : t list

val name : t -> string
(** [latency-greedy], [diversity-max] or [load-adaptive] — the
    [--strategy] flag spelling. *)

val of_string : string -> (t, string) result

type ctx
(** The inputs a selection reads, a per-link latency table and the
    current {!Link_load}, plus scratch reused across selections. A
    context reads the load's capacity and count arrays
    ({!Link_load.capacities}, {!Link_load.counts}) in place, in its own
    loops. A context is not safe to share between domains: give each
    simulation its own. *)

val ctx : latency_ms:float array -> Link_load.t -> ctx
(** [latency_ms] is indexed by link id; every offered path's links
    must index it. *)

type offer
(** One pair's offered path set with its per-pair selection table:
    each path's one-way latency (the sum over its links) and the
    offered indices sorted by (latency, index), the order every
    selector scans candidates in. Built once per offered set; reading
    it never mutates it, so one offer serves every selection on its
    pair. *)

val offer : ctx -> Fwd_path.t array -> offer
(** The table for an offered set, with the context's latencies. The
    array is kept, not copied: do not mutate it. *)

val latency : offer -> int -> float
(** One-way propagation latency of the offered path at that index. *)

val select :
  t -> ctx -> usable:(Fwd_path.t -> bool) -> width:int -> offer -> int array
(** [select s ctx ~usable ~width offer] returns indices into the offered
    set of the chosen paths, best first. It chooses among the paths
    [usable] (a liveness test) accepts as if no other path were offered,
    so the selection has [min width live] distinct indices for [live]
    usable paths: [| |] when none is. Never mutates the context's
    {!Link_load.t}. Raises [Invalid_argument] when [width < 1]. *)

val estimate : ctx -> offer -> int array -> float
(** [estimate ctx offer sel] is the aggregate rate the selection [sel]
    (indices into the offered set) would get: the sum, in [sel]'s
    order, of each subflow's admission-rate estimate (the minimum over
    its links of [capacity / (count + 1)]), counting on every link the
    subflows of [sel] before it. This is the score load-adaptive
    selection maximises greedily and re-selection compares by. Never
    mutates the context's {!Link_load.t}. *)
