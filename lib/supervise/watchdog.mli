(** Cooperative per-job deadlines.

    A watchdog is started when a supervised job begins; the job calls
    {!check} at safe points (round barriers, chunk boundaries) and a
    job that overruns its wall-clock budget raises {!Timeout} there —
    at a point where its state is consistent — instead of being killed
    mid-mutation. Cooperative deadlines keep the scheduler
    deterministic: the {e simulation} results never depend on timing,
    only whether a job is abandoned does (and the supervisor folds that
    into the {!Run_report}).

    A watchdog with no budget ([start None]) never fires, so callers
    can thread one unconditionally. *)

exception Timeout of { label : string; budget_s : float; elapsed_s : float }

type t

val start : ?now:(unit -> float) -> ?label:string -> float option -> t
(** [start budget_s] begins the clock. [now] (default
    [Unix.gettimeofday]) injects a fake clock for tests. Raises
    [Invalid_argument] on a non-positive budget. *)

val check : t -> unit
(** Raise {!Timeout} if the budget is exhausted; no-op otherwise (and
    always a no-op without a budget). *)

val expired : t -> bool
(** More than the budget has elapsed since {!start}. *)
