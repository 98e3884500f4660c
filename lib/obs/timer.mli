(** Named wall-clock phase timers.

    Each name accumulates total elapsed seconds and an invocation
    count, so an experiment can report where its run time went
    (topology generation vs beaconing vs analysis). Backed by
    [Unix.gettimeofday]; at the multi-millisecond granularity of
    experiment phases the difference from a monotonic clock is
    immaterial, and it keeps the dependency footprint to [unix].

    Timings are not deterministic, so they never enter the
    [--metrics-out] document: the CLI prints {!report} on stderr. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f ()], accumulating its wall-clock duration
    under [name] (also on exception). *)

val total : t -> string -> float
(** Accumulated seconds; 0. for unknown names. *)

val report : t -> (string * float * int) list
(** [(name, total_seconds, count)], sorted by name. *)

val merge : into:t -> t -> unit
(** Accumulate the source's totals and counts into [into] (per name);
    the source is left unchanged. Totals merged from concurrently
    running phases report aggregate busy time, which can exceed
    wall-clock time. *)
