(** Geographic link latencies.

    §4.2 notes that optimising paths for latency needs information
    beyond interface identifiers — e.g. border-router locations or
    latency measurements. The generator already places every AS in a
    set of interconnection cities; this module derives deterministic
    per-link propagation latencies from those locations: links between
    ASes sharing a city are metro-length, others pay the great-circle
    cost between representative cities. *)

val latency_table : Graph.t -> float array
(** One-way propagation latency of every link in milliseconds, indexed
    by link id: 1 ms base (metro hop) when the endpoints share a city,
    otherwise base plus the distance at 200 km/ms (fibre) between the
    endpoints' first cities, placed deterministically on a
    10 000 × 10 000 km plane (hash-based; no dataset required); plus a
    deterministic 0–2 ms per-link spread so parallel links differ.
    Always positive. *)
