(** Deterministic parallel experiment engine.

    One order-preserving map runs independent jobs — beaconing runs,
    per-trial failure simulations, grid-search candidates — on OCaml 5
    domains while keeping every observable result identical to the
    sequential execution:

    - {!map_jobs_obs} preserves input order: result [i] always comes
      from input [i], no matter which domain computed it or in which
      order jobs finished. Spawned domains and the calling domain claim
      input indices from one atomic counter and write each result into
      its own slot.
    - There is one code path for every [jobs] value: [jobs:1] (the
      default everywhere) runs the same claim loop on the calling
      domain with no domain spawned.
    - Every job records into its own {!Obs.fork}ed child, and the
      children are merged in input order, so the merged metrics are
      the same at any [jobs].
    - Failures carry their job context: every job runs to completion,
      then the failing job with the smallest input index (not the first
      to finish) is re-raised as {!Job_failed}, so which error surfaces
      does not depend on domain scheduling.
    - {!job_seed} derives statistically independent per-job RNG seeds
      from a base seed and the job index, so stochastic jobs partition
      their randomness deterministically instead of sharing a stream.

    Only the stdlib ([Domain], [Atomic]) is used; there is no dependency
    on domainslib. A job may itself call {!map_jobs_obs}: the nested
    call spawns its own domains, so nesting cannot deadlock. *)

exception
  Job_failed of {
    index : int;  (** input position of the failing job *)
    backtrace : string;  (** backtrace captured where the job ran *)
    exn : exn;  (** the original exception *)
  }
(** Raised by {!map_jobs_obs} when a job fails. The original exception
    and its backtrace are preserved. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible [--jobs] value
    for "use the whole machine". *)

val job_seed : int64 -> int -> int64
(** [job_seed base i] is a SplitMix64-derived seed for job [i]:
    deterministic in [(base, i)] and statistically independent across
    indices. Feed it to {!Rng.create} so each parallel job owns its own
    stream. *)

val map_jobs_obs :
  ?obs:Obs.t -> jobs:int -> (obs:Obs.t -> 'a -> 'b) -> 'a array -> 'b array
(** [map_jobs_obs ~obs ~jobs f arr] applies [f] to every element,
    running up to [jobs] applications concurrently, and returns the
    results in input order.

    [max 0 (min (jobs - 1) (n - 1))] domains are spawned (capped below
    the stdlib's domain limit) and the caller works as the [jobs]-th,
    so [jobs <= 1] runs every job on the calling domain. Each job
    receives {!Obs.fork}[ obs], an isolated child context that shares
    [obs]'s tracer. After every job finished, also when some failed,
    the children are merged back into the parent with {!Obs.merge} in
    input order. Only then is the smallest-index failure re-raised as
    {!Job_failed}. On a disabled [obs] (the default) instrumentation
    stays zero-cost. *)
