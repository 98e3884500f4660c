(** Labeled metric registry: counters and histograms.

    A metric is identified by a name plus a set of [(key, value)]
    labels — e.g. [beacon_bytes_total{algo=diversity}] — following the
    Prometheus data model, so exports translate directly to standard
    tooling. Labels are order-insensitive (normalised by sorting).

    Hot paths should hoist the lookup: obtain the cell once with
    {!counter}/{!histogram} and update the returned cell directly,
    rather than calling {!add} (which re-hashes the key) per event. *)

type t

type labels = (string * string) list

val create : unit -> t

val counter : t -> ?labels:labels -> string -> float ref
(** Find-or-create the counter cell; mutate the returned ref to
    accumulate. Raises [Invalid_argument] if the name+labels already
    exists with a different metric kind. *)

val histogram : t -> ?labels:labels -> string -> Histogram.t
(** Find-or-create a histogram. *)

val add : t -> ?labels:labels -> string -> float -> unit
(** One-shot counter accumulation (lookup per call). *)

(** {1 Snapshots} *)

type value =
  | Counter of float
  | Hist of Histogram.summary

type sample = { name : string; labels : labels; value : value }

type snapshot = sample list
(** Sorted by (name, labels); an immutable copy of the registry
    contents at one instant. *)

val snapshot : t -> snapshot

(** {1 Exports} *)

val to_json : t -> Obs_json.t
(** Full machine-readable export: every series with kind, labels and —
    for histograms — the occupied buckets (see {!Histogram.to_json}). *)

(** {1 Checkpointing} *)

val write : Snapshot.writer -> t -> unit
(** Complete registry contents, sorted by (name, labels) with labels
    normalised: equal registries write equal bytes regardless of
    hash-table layout. *)

val read : Snapshot.reader -> t
(** Inverse of {!write}. Raises {!Snapshot.Corrupt} on series out of
    strictly increasing (name, labels) order, labels not sorted by key,
    or a bad metric tag. *)

val merge : into:t -> t -> unit
(** Accumulate every series of the source registry into [into],
    creating missing series as needed: counters are summed and
    histograms are bucket-merged (see {!Histogram.merge}). The source
    is left unchanged.
    Raises [Invalid_argument] if a series exists in both registries
    with different metric kinds.

    This is the reduction step of parallel experiment execution: each
    job records into a private registry and the per-job registries are
    merged after the barrier in input order, so the result does not
    depend on how jobs were scheduled. *)
