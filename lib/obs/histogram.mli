(** Log-bucketed histograms with quantile readout.

    Observations land in exponentially-spaced buckets
    [\[growth^i, growth^(i+1))] with [growth = 2{^0.25}], so a histogram
    covers many orders of magnitude (bytes on an interface, nanoseconds
    of latency) in O(1) memory per occupied bucket with a bounded
    relative error of [growth - 1] (~19 % bucket width) per quantile,
    which keeps p50/p90/p99 within a few percent.

    Non-positive observations are counted in a dedicated underflow
    bucket; exact [min]/[max] are tracked alongside so tail quantiles
    are clamped to the observed range. *)

type t

val create : unit -> t
(** Empty histogram. *)

val observe : t -> float -> unit
(** Record one observation. Raises [Invalid_argument] on [nan]. *)

val count : t -> int
(** Number of observations. *)

val sum : t -> float
(** Sum of all observations (exact, not bucketed). *)

val mean : t -> float
(** [nan] when empty. *)

val fraction_le : t -> float -> float
(** Fraction of observations [<= x], interpolating log-linearly inside
    the bucket that straddles [x]. [nan] when empty. *)

val merge : into:t -> t -> unit
(** Accumulate a second histogram. The source is left unchanged. *)

(** {1 Checkpointing} *)

val write : Snapshot.writer -> t -> unit
(** The complete state, led by the growth factor as an [f64], occupied
    buckets sorted by index: two histograms with the same observations
    write equal bytes regardless of internal hash-table layout. *)

val read : Snapshot.reader -> t
(** Inverse of {!write}: the rebuilt histogram answers every query
    identically and writes the same bytes. Raises {!Snapshot.Corrupt}
    on a growth other than [2{^0.25}] or buckets out of strictly
    increasing index order. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** One-shot readout of the headline statistics. [min] and [max] are
    exact; a quantile [pN] is the geometric midpoint of the bucket
    holding the order statistic of rank [ceil (N/100 * count)], clamped
    to [\[min, max\]]. Every field but [count] and [sum] is [nan] when
    the histogram is empty. *)

val summarize : t -> summary

val to_json : t -> Obs_json.t
(** Summary plus the occupied buckets as [{le; count}] pairs ([le] is
    the bucket's upper bound, mirroring Prometheus conventions). *)
