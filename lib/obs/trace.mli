(** Bounded structured event tracing.

    Every event carries a (virtual or wall-clock) timestamp, a severity
    level, a category and optional string fields. Events are retained
    in a fixed-capacity ring buffer — old events are overwritten, never
    reallocated — and simultaneously forwarded to a pluggable sink
    (null / stderr / an [out_channel] / a callback).

    Tracing is designed to be zero-cost when off: {!null} rejects every
    level, and hot paths must guard payload construction with
    {!enabled}:
    {[
      if Trace.enabled tr Trace.Debug then
        Trace.emit tr Trace.Debug ~time ~category:"beacon"
          ~fields:[ ("as", string_of_int x) ] "pcb propagated"
    ]} *)

type level = Error | Warn | Info | Debug
(** Severities, most to least urgent. Enabling a level enables every
    more-urgent one. *)

val level_rank : level -> int
(** [Error] = 0 … [Debug] = 3. *)

val level_to_string : level -> string

val level_of_string : string -> (level, string) result

type event = {
  time : float;  (** simulation or wall-clock seconds, caller-defined *)
  level : level;
  category : string;  (** subsystem, e.g. ["beacon"], ["des"], ["bgp"] *)
  message : string;
  fields : (string * string) list;
}

type sink =
  | Null  (** ring buffer only *)
  | Stderr  (** one rendered line per event, flushed *)
  | Custom of (event -> unit)

type t

val null : t
(** The shared disabled tracer: {!enabled} is always [false], {!emit}
    does nothing. Use as the default for optional [?trace] arguments. *)

val create : ?capacity:int -> ?sink:sink -> level -> t
(** Tracer accepting events up to [level]. [capacity] (default 4096)
    bounds the ring buffer; 0 disables retention (sink only). *)

val enabled : t -> level -> bool
(** Check before building an event payload on a hot path. *)

val emit :
  t -> level -> time:float -> category:string ->
  ?fields:(string * string) list -> string -> unit
(** Record an event (no-op when the level is not {!enabled}). *)

val events : t -> event list
(** Retained events, oldest first. *)

val emitted : t -> int
(** Total events accepted since creation. *)

val dropped : t -> int
(** Events lost to ring-buffer wraparound. *)

val render : event -> string
(** One-line human rendering, as written by the [Stderr] sink. *)

val event_to_json : event -> Obs_json.t

val to_json : t -> Obs_json.t
(** [{emitted; dropped; events}] with the retained events in order. *)
