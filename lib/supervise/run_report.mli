(** Structured outcome of a supervised job batch.

    Where unsupervised {!Runner.map_jobs_obs} aborts the whole batch by
    raising {!Runner.Job_failed}, a supervised run degrades gracefully:
    every job either succeeded or is recorded here as a {!failure}
    carrying everything needed to re-run it standalone — index, label,
    seed, attempt count and the final error. *)

type failure = {
  index : int;  (** input position of the job *)
  label : string;
  seed : int64 option;  (** per-job base seed, when seeded *)
  attempts : int;  (** attempts made (1 = no retry) *)
  error : string;  (** printed form of the last exception *)
  backtrace : string;  (** backtrace of the last attempt *)
}

type t = { jobs : int; failures : failure list }
(** [failures] is sorted by index. *)

val make : jobs:int -> failure list -> t
(** Sorts the failures by index. *)

val n_failed : t -> int

val to_json : t -> Obs_json.t

val observe : Obs.t -> t -> unit
(** Export [supervise_{jobs,jobs_failed,retries}_total] counters; no-op
    on a disabled context. *)

val pp : Format.formatter -> t -> unit
