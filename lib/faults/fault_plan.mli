(** Declarative, seeded fault plans.

    A plan is a list of failure specifications over a topology's links;
    {!compile} expands it into a flat, time-sorted array of link
    down/up transitions that {!Link_state.replay} applies between
    beaconing rounds or traffic slots. Compilation is a pure function of
    the plan (including its seed) and the graph, so the same plan always
    yields the same event sequence — the property the resilience
    experiments lean on for byte-identical parallel runs. *)

type action = Down | Up

type event = { time : float; link : int; action : action }
(** One link transition. Events compare equal on [time] preserve their
    generation order, so replay is deterministic even under ties. *)

type spec =
  | Link_down of { link : int; at : float; duration : float }
      (** One-shot: [link] fails at [at] and is repaired [duration]
          seconds later ([infinity] = never repaired). *)
  | As_outage of { as_idx : int; at : float; duration : float }
      (** Every link incident to [as_idx] fails at [at] (a whole AS
          dropping off the network) and recovers after [duration]. *)
  | Flapping of {
      link : int;
      at : float;
      period : float;
      down_fraction : float;
      until : float;
    }
      (** Periodic instability: from [at] until [until], the link goes
          down at the start of each [period] and comes back after
          [down_fraction * period] seconds. *)
  | Stochastic of { mtbf : float; mttr : float; start : float; until : float }
      (** Memoryless background failures on {e every} link: up-times
          are Exp(1/mtbf), repair times Exp(1/mttr), independently per
          link from a SplitMix stream partitioned off the plan seed.
          Failures are injected in [\[start, until)]; an in-flight
          repair may complete after [until]. *)

type t = { seed : int64; specs : spec list }

val plan : ?seed:int64 -> spec list -> t
(** [seed] (default [0xFA17L]) drives the [Stochastic] specs only;
    deterministic specs ignore it. *)

val compile : graph:Graph.t -> t -> event array
(** Expand the plan against [graph] into a time-sorted event array
    (ties broken by generation order). Raises [Invalid_argument] if a
    spec names a link or AS outside the graph, or has a non-positive
    period/mtbf/mttr. *)

val fingerprint : graph:Graph.t -> t -> string
(** The plan's part of a checkpoint fingerprint: its seed, then every
    {!compile}d event's time (hex float), link and action. Two plans
    with the same text replay the same events on [graph]. *)

val sample_adjacencies :
  rng:Rng.t ->
  count:int ->
  accept:(link:Graph.link -> siblings:int list -> 'a option) ->
  Graph.t ->
  'a list
(** Shared failure-site sampler: draw links uniformly at random
    (consuming exactly one [Rng.int] per attempt) until [count]
    distinct {e adjacencies} are accepted or 500 draws are spent. For
    each fresh draw, [siblings] is the full parallel-link group between
    the two endpoint ASes; [accept] returning [Some v] selects the
    adjacency (all siblings become ineligible for later draws), [None]
    rejects it without marking anything used. Results are in acceptance
    order.

    This is the convergence experiment's failure selection: an
    adjacency fails as a whole (a shared conduit), and a selection
    consumes a fixed RNG stream. *)
