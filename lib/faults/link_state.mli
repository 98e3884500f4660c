(** Reference-counted link liveness.

    Several overlapping fault specs may fail the same link (a flap
    inside an AS outage, a stochastic failure during a link's one-shot
    outage); a link is up only when {e no} cause holds it down.
    {!apply} folds a raw plan event into the counter and reports whether
    the link actually changed state, so reactions (revocation, repair)
    fire once per real transition, not once per overlapping cause. *)

type t

type transition = Went_down | Went_up | No_change

val create : n_links:int -> t
(** All links start up. *)

val apply : t -> now:float -> link:int -> action:Fault_plan.action -> transition
(** Fold one plan event. [Down] increments the link's hold count
    ([Went_down] on the 0→1 edge); [Up] decrements it, never below
    zero ([Went_up] on the 1→0 edge). *)

val replay :
  t ->
  Fault_plan.event array ->
  from:int ->
  until:float ->
  on_down:(now:float -> link:int -> unit) ->
  on_up:(now:float -> link:int -> unit) ->
  int
(** [replay t events ~from ~until ~on_down ~on_up] folds the compiled,
    time-sorted [events] into [t] with {!apply}, starting at index
    [from] and stopping before the first event later than [until]
    ([until] is inclusive). [on_down]/[on_up] run only on real
    transitions, with [now] the event's time. Returns the index of the
    first unapplied event: the cursor to pass as [from] next time.
    Stepped round by round, this is the whole fault replay; the cursor
    is what a checkpoint stores. *)

val up : t -> int -> bool

val down_since : t -> int -> float option
(** Time of the transition that took the link down, if it is down. *)

val down_links : t -> int list
(** Currently-down links in ascending id order. *)

val n_links : t -> int

val holds : t -> int -> int
(** Raw hold count of a link (0 = up). Exposed for invariant checks. *)

(** {1 Checkpointing} *)

val write : Snapshot.writer -> t -> unit
(** Hold counts, then down-since times, each in link order. *)

val read : Snapshot.reader -> t
(** Inverse of {!write}. Raises {!Snapshot.Corrupt} if the two arrays
    differ in length; hold counts are taken as written (negative ones
    are for the invariant checks to flag). *)
