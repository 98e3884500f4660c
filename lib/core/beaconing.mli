(** Round-based beaconing engine for core and intra-ISD beaconing (§2.2).

    Each beaconing interval, every originating core AS initiates a
    fresh PCB instance, and every AS runs its path-construction
    algorithm to select which stored PCBs to extend and disseminate on
    which eligible interfaces. Messages sent in one interval are
    delivered before the next (the intervals of §5.1 are three orders
    of magnitude longer than propagation delays), which is exactly the
    regime the paper's ns-3 simulations operate in.

    - {e Core beaconing}: selective flooding over core links; all core
      ASes originate.
    - {e Intra-ISD beaconing}: uni-directional dissemination from the
      ISD core down provider–customer links; only core ASes originate,
      and each AS entry advertises the AS's peering links.

    The engine runs the baseline selection itself, at most
    [Beacon_policy.dissemination_limit] paths per origin per interface.
    The quality-aware algorithms run [Beacon_policy.evaluate] once per
    (origin, neighbor) pair; the engine owns rounds, origination,
    sending (signing, the link gate, accounting, tracing), delivery and
    pruning.

    Sending does not build the extended PCB. It charges the extension's
    size ({!Pcb.extension_wire_bytes}) and queues the parent PCB with
    the directed interface [2*link + side] in an outbox of two growable
    arrays (2 words per message), reused across rounds and emptied by
    delivery. Delivery, in send order, offers each message to the
    receiving store ({!Beacon_store.offer}), which decides on the
    extension's key, hop count, timestamp and lifetime and builds it
    (ingress, egress, advertised peers) only if it keeps it: most PCBs
    of a flooding round are rejected and never built. With
    [verify_crypto], signing is the sender's act: the sender builds and
    signs the extension and the outbox carries it; delivery verifies it
    and inserts it through the same store decision. The outbox is empty
    between rounds, so it is not part of a checkpoint. *)

type scope = Core_beaconing | Intra_isd

type config = {
  scope : scope;
  algorithm : Beacon_policy.t;
  interval : float;  (** beaconing interval, 600 s in §5.1 *)
  lifetime : float;  (** PCB lifetime, 21 600 s in §5.1 *)
  storage_limit : int;  (** PCB storage limit per origin; [max_int] = ∞ *)
  duration : float;  (** simulated time, 21 600 s in §5.1 *)
  verify_crypto : bool;
      (** sign every AS entry and verify whole chains on receipt
          (intended for small topologies and tests) *)
}

val default_config : config
(** §5.1 settings: core beaconing, baseline algorithm, 10-minute
    interval, 6-hour lifetime and duration, storage limit 60, no crypto
    verification. PCB sizes use {!Wire.signature_bytes}. *)

type stats = {
  bytes_on_iface : float array;
      (** sent bytes per directed interface; index [2*link + 0] for the
          [a]→[b] direction, [2*link + 1] for [b]→[a] *)
  pcbs_on_iface : int array;  (** sent PCB count, same indexing *)
  mutable total_bytes : float;
  mutable total_pcbs : int;
  mutable crypto_failures : int;
  rounds : int;
}

type outcome = {
  graph : Graph.t;
  config : config;
  stores : Beacon_store.t array;  (** final beacon store of every AS *)
  stats : stats;
}

(** {1 Stepwise engine}

    {!run} executes all rounds in one call. The engine below exposes
    the same simulation round by round, so callers can interleave work
    with beaconing (fault injection, soaks) and checkpoint between
    rounds: {!write} an engine, {!read} it back later and call
    {!engine_round} for the remaining rounds only. *)

type engine

val engine : ?obs:Obs.t -> Graph.t -> config -> engine
(** Set up a simulation with empty stores and zero accounting, without
    running any rounds. Raises [Invalid_argument] on a config {!run}
    would reject. *)

val engine_round : ?link_up:(int -> bool) -> engine -> round:int -> unit
(** Execute beaconing interval [round] (0-based): prune (every 6th
    round), select, disseminate, deliver. Rounds must be driven in
    increasing order starting at the first non-executed round. Callers
    that interleave work with beaconing run it before or after each
    [engine_round]; {!run} steps every round with nothing in between.

    [link_up l] (default: always [true]) gates this round's
    dissemination on link liveness: a PCB selected for propagation over
    a dead link is silently discarded — no bytes are accounted and
    nothing is delivered — modelling a border router whose interface is
    down. *)

val engine_stores : engine -> Beacon_store.t array
(** The live store array, one store per AS. *)

val engine_stats : engine -> stats
(** The live accounting record. [stats.rounds] is the planned round
    count [duration / interval]. *)

val write : Snapshot.writer -> engine -> unit
(** The engine's resumable state: every store ({!Beacon_store.write}),
    then every [stats] field, arrays in interface order.

    Only the [Baseline] algorithm keeps no state outside stores and
    stats. The diversity and latency algorithms also keep per-AS
    history (evaluation times, the Link History Table, the Sent PCBs
    List) that is not written, so their engines cannot be resumed. *)

val read : Snapshot.reader -> Graph.t -> config -> engine
(** [read r g config] is the inverse of {!write}: an engine (with
    observability off) that continues where the written one stopped,
    behaviour-identical for [Baseline] (see {!write}). Raises
    {!Snapshot.Corrupt} on malformed bytes, a store count other than
    [Graph.n g] or interface arrays whose length is not twice
    [Graph.num_links g]; a config {!engine} rejects raises
    [Invalid_argument] as there. *)

val engine_outcome : engine -> outcome
(** Package the engine's current state as an {!outcome}. Does not
    {!observe}. *)

val run : ?obs:Obs.t -> Graph.t -> config -> outcome
(** Simulate [duration / interval] beaconing intervals. To gate links
    or run work between rounds (fault injection, soaks), step an
    {!engine} with {!engine_round} instead.

    With an enabled [obs] context (default {!Obs.disabled}, which costs
    one branch per send) the run maintains the
    [beacon_pcbs_originated_total] counter labeled [{algo; scope}],
    times each selection round under the
    [beacon.selection_round] timer, emits [beacon]-category trace
    events (per-PCB at [Debug], per-round and end-of-run at [Info],
    crypto rejections at [Warn]) and finally calls {!observe} on the
    outcome. *)

val observe : Obs.t -> outcome -> unit
(** Export an outcome's accounting into an {!Obs.t}: its [stats]
    totals as the [beacon_{pcbs_sent,bytes_sent,crypto_failures}_total]
    counters labeled [{algo; scope}], the directed per-interface
    sent-byte distribution as the [beacon_iface_bytes] histogram (the
    Fig. 9 quantity) and the 16 busiest interfaces as
    [pcb_bytes{as; ifid; algo; scope}] labeled counters.
    No-op on a disabled context; {!run} already calls this when its
    [obs] is enabled. *)

val received_bytes_by_as : outcome -> float array
(** Control-plane bytes received per AS (PCBs arriving on its
    interfaces), the per-monitor quantity of Fig. 5. *)

val sent_bytes_by_as : outcome -> float array

val eligible_iface_bytes : outcome -> float array
(** Sent bytes of every directed interface that is eligible for the
    configured scope (the per-interface distribution of Fig. 9). *)
