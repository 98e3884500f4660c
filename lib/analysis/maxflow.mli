(** Dinic's maximum-flow algorithm on small integer-capacity graphs.

    With unit capacities per inter-AS link, the max-flow between two
    ASes equals (Menger) both the minimum number of link failures that
    disconnects them (Fig. 6a / 7) and the number of parallel inter-AS
    links traffic can saturate (Fig. 6b / 8) — the paper notes this
    equivalence in §5.3. *)

type t

val create : n:int -> t
(** Flow network over nodes [0 .. n-1]. *)

val add_undirected : t -> int -> int -> cap:int -> unit
(** Symmetric capacity in both directions (an inter-AS link can carry
    traffic either way). *)

val max_flow : t -> src:int -> dst:int -> int
(** Computes and returns the max-flow value. The structure is consumed:
    run one query per [t]. Returns 0 when [src = dst]. *)
