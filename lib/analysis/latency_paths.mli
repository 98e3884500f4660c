(** Latency-optimal reference paths (for the §4.2 latency-optimisation
    extension): Dijkstra over the multigraph with per-link latency
    weights. *)

val best_latency : Graph.t -> weights:float array -> src:int -> dst:int -> float
(** Minimum total latency from [src] to [dst] ([infinity] when
    unreachable). [weights] is indexed by link id and must be
    non-negative; a negative weight met on the way raises
    [Invalid_argument]. *)

val stored_best_latency :
  weights:float array -> Pcb.t list -> float
(** The lowest total latency among a set of disseminated paths;
    [infinity] for an empty set. *)
