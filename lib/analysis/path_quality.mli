(** Path-quality metrics of §5.3: link-failure resilience and maximum
    capacity of a disseminated path set between two ASes.

    Both metrics are the max-flow with unit capacity per inter-AS link
    (§5.3 notes the equivalence): computed on the full topology they
    give the optimum; computed on the subgraph formed by the union of
    the links of a disseminated path set they give what a routing
    algorithm actually achieves. *)

val optimum : Graph.t -> src:int -> dst:int -> int
(** Max-flow over the whole multigraph, all parallel links counted. *)

val of_pcbs : Graph.t -> Pcb.t list -> src:int -> dst:int -> int
(** Flow restricted to the union of links appearing in the PCBs
    (SCION: the paths from origin [dst] stored at [src]). *)

val of_outcome : Graph.t -> Beaconing.outcome -> (int * int) array -> int array
(** {!of_pcbs} for each [(src, dst)] pair over the PCBs from [dst] that
    [src] holds one second before the end of the beaconing run. *)

val of_as_paths : Graph.t -> int list list -> src:int -> dst:int -> int
(** Flow restricted to the union of AS-level paths, each AS adjacency
    expanded to {e all} parallel links between the two ASes — the
    paper's best case for BGP multipath (§5.3). *)
