(** Structured event tracing: an immutable level filter plus a sink.

    Every event carries a (virtual or wall-clock) timestamp, a severity
    level, a category and optional string fields. An accepted event is
    handed to the sink at once; the tracer keeps no state, so one
    tracer is shared by every job of a parallel run and [--trace]
    streams the same events at any [--jobs].

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
  | Stderr
      (** one line per event, [\[time\] level category: message
          {k=v ...}], written with its newline in one call and flushed,
          so lines from concurrent domains never interleave *)
  | Custom of (event -> unit)
      (** called on the emitting domain; with [--jobs] above 1 it must
          be safe to call from several domains at once *)

type t

val null : t
(** The shared disabled tracer: {!enabled} is always [false], {!emit}
    does nothing. Use as the default for optional [?trace] arguments. *)

val create : ?sink:sink -> level -> t
(** Tracer accepting events up to [level]; [sink] defaults to
    [Stderr]. *)

val enabled : t -> level -> bool
(** Check before building an event payload on a hot path. *)

val emit :
  t -> level -> time:float -> category:string ->
  ?fields:(string * string) list -> string -> unit
(** Hand an event to the sink (no-op when the level is not
    {!enabled}). *)
