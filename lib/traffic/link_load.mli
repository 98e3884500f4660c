(** Capacity-aware link loading.

    Every topology link gets a deterministic capacity derived from its
    business relationship and the provider's tier (core trunks are
    fattest, stub access links thinnest), scaled uniformly by the
    [--capacity-scale] knob. The loader tracks how many subflows
    currently ride each link and answers the fluid-model rate
    questions the engine and the load-adaptive strategy ask: what a
    subflow on a path gets now ({!fair_share_into}), and what a {e new}
    subflow would get if it joined — the congestion-feedback signal
    path selection steers by. *)

type t

val create : ?capacity_scale:float -> Graph.t -> t
(** [capacity_scale] (default 1.0, must be positive) multiplies every
    link capacity. *)

val capacity_mbps : t -> int -> float
(** Capacity of a link in Mbit/s (scaled). *)

val count : t -> int -> int
(** Subflows currently riding the link. *)

val capacities : t -> float array
(** Every link's capacity, indexed by link id. Shared: do not mutate. *)

val counts : t -> int array
(** Every link's subflow count, indexed by link id. Shared and updated
    in place by {!add_path}/{!remove_path}: do not mutate. *)

val add_path : t -> int array -> unit
(** Register one subflow on every link of a path. *)

val remove_path : t -> int array -> unit
(** Unregister; raises [Invalid_argument] if a count would go
    negative (a remove without a matching add). *)

val fair_share_into : t -> int array -> float array -> int -> unit
(** [fair_share_into t links dst i] stores in [dst.(i)] the rate of one
    subflow {e already counted} on the path [links]: the minimum over
    its links of [capacity / count], with no redistribution of what
    subflows bottlenecked elsewhere leave unused (not max-min fair).
    [infinity] on an empty path. The rate is stored rather than
    returned so a per-slot caller allocates nothing. *)
