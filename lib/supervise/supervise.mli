(** Run supervision: crash isolation, retries, graceful degradation.

    {!map} is the supervised mode of {!Runner.map_jobs_obs}: each job runs
    under a {!Watchdog} deadline and is retried up to [retries]
    times on any exception (including {!Watchdog.Timeout}), with
    deterministic per-attempt seeds derived from the same SplitMix64
    partitioning as {!Runner.job_seed} — so a retried batch is exactly
    reproducible from [(base_seed, index, attempt)]. A job that
    exhausts its retries does {e not} abort the batch: the surviving
    jobs complete and the failure is reported as data in a
    {!Run_report}.

    The other half of supervision — deterministic checkpoint/resume —
    is {!run_cells}: it advances a set of snapshot-able cells to a
    horizon in supervised chunks, writing {!Checkpoint} files between
    chunks and resuming from them. {!cli} carries the flags both halves
    share. *)

exception Killed of { checkpoints : int }
(** Raised by {!run_cells} when its [kill_after] budget is reached: a
    deterministic stand-in for SIGKILL at a checkpoint boundary, used by
    the resume tests and CI. The CLI maps it to exit code 3 without
    printing results. *)

exception Inject_fail_out_of_range of { index : int; cells : int }
(** Raised by {!run_cells}, before any cell runs, when [cli.inject_fail]
    is [index], which is not one of the [cells] cell indices. The flag
    is parsed before the cell count is known, so the CLI maps this to
    a usage error (exit 124). Its registered printer names the valid
    range. *)

exception Bad_checkpoint of { file : string; reason : string }
(** Raised by {!run_cells}, before any cell runs, when [cli.resume]
    finds a newest checkpoint [file] (its path) that it cannot use: a
    malformed or truncated frame or progress record, one written by
    another configuration or build, a directory or an unreadable file.
    [reason] is the decoder's {!Snapshot.Corrupt} message or the
    system's. The checkpoint directory is user
    input, so the CLI reports this as a data error (exit 4). *)

type cli = {
  checkpoint_every : int;
      (** work steps between checkpoints (beaconing rounds for [pathdyn],
          slots for [traffic]); 0 = off *)
  checkpoint_dir : string option;
  resume : bool;  (** continue from the latest checkpoint *)
  kill_after : int option;  (** abort after N checkpoint writes *)
  max_failures : int;  (** tolerated failed jobs before nonzero exit *)
  retries : int;  (** {!map}'s [retries] *)
  watchdog_s : float option;  (** {!map}'s [watchdog_s] *)
  inject_fail : int option;  (** force the job at this index to raise *)
}
(** The supervision-related command-line surface of the checkpointing
    scenarios ([pathdyn], [traffic]). *)

val default_cli : cli
(** Checkpointing off, one retry, no watchdog, no injection. *)

val map :
  ?retries:int ->
  ?watchdog_s:float ->
  ?label_of:(int -> string) ->
  jobs:int ->
  base_seed:int64 ->
  (obs:Obs.t -> seed:int64 -> watchdog:Watchdog.t -> 'a -> 'b) ->
  'a array ->
  ('b, Run_report.failure) result array * Run_report.t
(** Supervised parallel map. Each job gets up to [retries] (default 1;
    negative counts as 0) further attempts after the first, each under a
    fresh [watchdog_s] budget (default: none). Jobs receive their
    attempt seed and a running watchdog (which they should
    {!Watchdog.check} at safe points). Attempt 0 of job [i] is seeded
    with [Runner.job_seed base_seed i]; attempt [k > 0] re-derives with
    [Runner.job_seed (Runner.job_seed base_seed i) k], so seeds are
    distinct across (index, attempt) pairs. Results come back in input
    order; a failed job yields [Error failure] in its slot instead of
    poisoning the batch. Jobs receive {!Obs.disabled}: a caller that
    wants the report in its metrics {!Run_report.observe}s it.

    Determinism: results are independent of [jobs] (given a
    deterministic [f]); watchdog timeouts are the only wall-clock
    dependent outcomes and surface only in the report, never as
    corrupted results. *)

(** {1 Chunked, checkpointed cells} *)

type 's cells = {
  name : string;
      (** checkpoint file prefix, schema tag and message prefix, e.g.
          ["pathdyn"] *)
  fingerprint : string;
      (** everything a resumed run must agree on (chunking plus every
          cell's configuration key); hashed into the checkpoint schema *)
  labels : string array;  (** one per cell; fixes the cell count *)
  create : int -> 's;  (** fresh state of cell [i] *)
  restore : int -> string -> 's;  (** decode cell [i] from [encode] bytes *)
  advance : watchdog:Watchdog.t -> 's -> upto:int -> unit;
      (** run the cell up to work step [upto] *)
  encode : 's -> string;
  check : 's -> unit;
      (** consistency gate run on every surviving cell before a
          checkpoint is written; raise to abort the run *)
}
(** The per-cell functions {!run_cells} drives. Cells must be
    deterministic and survive an [encode]/[restore] round trip
    unchanged. *)

val run_cells :
  cli:cli ->
  jobs:int ->
  seed:int64 ->
  horizon:int ->
  chunk:int ->
  's cells ->
  ('s, Run_report.failure) result array * Run_report.t
(** [run_cells ~cli ~jobs ~seed ~horizon ~chunk cells] advances every
    cell from step 0 — or, with [cli.resume], from the newest checkpoint
    in [cli.checkpoint_dir] — to [horizon] in [chunk]-step work units.
    Each unit is one {!map} over the surviving cells with base seed
    [Runner.job_seed seed (horizon + steps_done)]; a job restores its
    cell from bytes, advances it and re-encodes it, so a failed attempt
    never leaks partial progress. A cell that exhausts its retries (or
    is [cli.inject_fail]) stays [Error] from then on.

    After a unit ending at least [cli.checkpoint_every] steps past the
    last checkpoint, or at [horizon], every surviving cell passes
    [check] and the progress is saved as [<name>.%06d.ckpt]; the
    [cli.kill_after]-th save raises {!Killed}.

    Returns the surviving cells restored and the {!Run_report} over all
    cells (failures carry the cell's own index). Resuming at any
    checkpoint gives the same result as an uninterrupted run, at any
    [jobs]. Raises {!Bad_checkpoint} when the resumed checkpoint is
    malformed, belongs to another configuration, records a different
    cell count, a step below 0 or past [horizon], or a failure whose index
    differs from its position. Raises {!Inject_fail_out_of_range},
    before any cell runs, when [cli.inject_fail] is not a cell index. *)
