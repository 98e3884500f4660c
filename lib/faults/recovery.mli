(** Failure-recovery accounting.

    Collects, per fault-injection trial, what the paper's §4.1/§5
    discussion cares about: how fast endpoints get back to a working
    path (failover to a cached alternate vs waiting out a blackout for
    re-beaconing), how many monitored pairs a failure touches, and
    what the revocation machinery costs in messages and bytes. *)

type t

val create : unit -> t

(** {1 Recording} *)

val record_event : t -> action:Fault_plan.action -> unit
(** One real link transition (post {!Link_state} collapsing). *)

val record_affected : t -> pair:int * int -> unit
(** A monitored pair lost at least one path to this failure. Each pair
    is counted once per trial however often it is hit. *)

val record_failover : t -> recovery_s:float -> unit
(** A unit (see {!open_blackout}) switched to an already-cached
    alternate path; [recovery_s] is the delay it had to wait. *)

val record_revocation : t -> segments:int -> msgs:int -> bytes:int -> unit
(** Revocation fan-out of one link failure: [segments] purged from
    path servers, [msgs] SCMP link-failure messages sent, [bytes]
    their total wire size. *)

val record_dropped_pcbs : t -> int -> unit
(** PCBs expired from beacon stores by a revocation. *)

val open_blackout : t -> now:float -> pair:int * int -> unit
(** The unit keyed [pair] has no path left; idempotent while open. The
    unit (of this key and of the failover and blackout counts) is the
    caller's: an AS pair in resilience, a flow [(id, 0)] in traffic. *)

val close_blackout : t -> now:float -> pair:int * int -> unit
(** The unit regained a path: the blackout window closes and its
    duration is recorded both as blackout time and as that unit's
    time-to-recovery. No-op if no blackout is open. *)

val finish : t -> now:float -> unit
(** End of trial: close every still-open blackout at [now] (the
    outage outlived the run; the truncated window still counts as
    blackout time, but not as a recovery — the pair never recovered). *)

(** {1 Checkpointing}

    The accounting is shared between the resilience trials and the
    traffic workload engine; the latter checkpoints mid-trial, so the
    full recording state — including still-open blackout windows — is
    written in a canonical (sorted, hash-layout-independent) order. *)

val write : Snapshot.writer -> t -> unit
(** Counters, affected pairs (sorted), recovery and blackout samples
    (recording order) and open windows (sorted by pair). *)

val read : Snapshot.reader -> t
(** Inverse of {!write}: the restored accounting writes the same bytes
    and keeps recording (an open window can still close). Raises
    {!Snapshot.Corrupt} on affected pairs or open windows out of
    strictly increasing pair order. *)

(** {1 Results} *)

type summary = {
  events_down : int;
  events_up : int;
  affected_pairs : int;
  failovers : int;
  blackouts : int;  (** blackout windows opened *)
  unrecovered : int;  (** still dark when the trial ended *)
  blackout_time_s : float;  (** summed over all windows *)
  recovery_samples : float array;
      (** per-recovery seconds: failover delays and closed-blackout
          durations, in recording order *)
  revoked_segments : int;
  revocation_msgs : int;
  revocation_bytes : float;
  dropped_pcbs : int;
}

val summary : t -> summary

val sum : summary list -> summary
(** Field-wise total, adding in list order; recovery samples are
    concatenated in list order. [sum []] is an empty trial's summary. *)

val observe : Obs.t -> t -> unit
(** Export into an {!Obs.t} registry: [fault_events_total{action}],
    [fault_affected_pairs_total], [fault_failovers_total],
    [fault_blackouts_total], [fault_revocation_bytes_total] counters
    and the [fault_recovery_time_s] / [fault_blackout_s] histograms.
    No-op on a disabled context. *)
