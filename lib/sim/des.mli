(** Deterministic discrete-event simulation engine.

    Replaces the ns-3 core the paper's simulator is built on: a virtual
    clock and a time-ordered event queue. Events scheduled for the same
    instant fire in scheduling order, which keeps runs reproducible.
    Only the BGP simulator ([Bgp_sim]) runs on it: beaconing is stepped
    in rounds, and fault plans are replayed between rounds by
    [Link_state.replay]. *)

type t

val create : ?obs:Obs.t -> unit -> t
(** [obs] (default {!Obs.disabled}) enables instrumentation: every
    fired event increments the [des_events_total] counter, the queue
    depth is sampled into the [des_queue_depth] histogram every 64
    events, and each firing emits a [des]-category [Debug] trace
    event. Costs one branch per event when disabled. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Raises
    [Invalid_argument] for negative or nan delays. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Absolute-time variant; the time must not be in the past (nor nan). *)

val step : t -> bool
(** Execute the earliest event, advancing the clock to its time;
    [false] if the queue was empty. The caller's loop decides when to
    stop. *)

val pending : t -> int
(** Number of queued events. *)
