(** Observability context: one value bundling the {!Registry} of
    metrics, the {!Trace} tracer and the phase {!Timer}s of a run.

    One rule keeps runs comparable: the metrics are deterministic and
    are the whole [--metrics-out] document; the CLI streams the trace
    and prints the wall-clock phase timers on stderr.

    Instrumented code takes an optional [?obs] argument defaulting to
    {!disabled} and guards every metric update with {!on} (and every
    trace payload with {!Trace.enabled}), so instrumentation costs
    nothing unless a caller opts in:
    {[
      let run ?(obs = Obs.disabled) config = ...
      if Obs.on obs then Registry.add (Obs.registry obs) "events_total" 1.0
    ]} *)

type t

val disabled : t
(** The shared no-op context: {!on} is [false], the trace is
    {!Trace.null}. Default for every [?obs] argument. *)

val create : ?trace:Trace.t -> unit -> t
(** Fresh context with an empty registry and timers. [trace] defaults
    to {!Trace.null} (metrics only). *)

val on : t -> bool
(** [false] exactly for {!disabled}; gate metric updates with this. *)

val registry : t -> Registry.t

val trace : t -> Trace.t

val timers : t -> Timer.t

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] times [f] under [name] when the context is
    enabled; otherwise just runs [f]. *)

val fork : t -> t
(** An isolated child context for one job: enabled exactly when [t]
    is, with a fresh registry and fresh timers, sharing [t]'s tracer
    (which keeps no state). Metrics and phase timers recorded in the
    child are brought back with {!merge}. Forking {!disabled} returns
    {!disabled}. *)

val merge : into:t -> t -> unit
(** Fold a {!fork}ed child back into its parent after the child's job
    completed: {!Registry.merge} on the metrics, {!Timer.merge} on the
    phase timers. No-op when either side is disabled. Call from one
    domain at a time (the parallel engine merges after its barrier). *)

val write_json_file : t -> string -> unit
(** The [--metrics-out] document, pretty-printed [{metrics}], to a file
    (created or truncated). It holds only the registry, so a fixed seed
    gives the same bytes at any [--jobs]. *)

