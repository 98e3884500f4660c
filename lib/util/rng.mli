(** Deterministic pseudo-random number generation.

    All stochastic parts of the simulator draw from this SplitMix64
    generator so that every experiment is exactly reproducible
    from its seed, independent of the OCaml stdlib [Random] state. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Distinct seeds yield
    independent streams. *)

val state : t -> int64
(** [state t] is the current internal state word. Together with
    {!of_state} it makes a generator checkpointable: restoring the
    state resumes the exact same stream. *)

val of_state : int64 -> t
(** [of_state s] rebuilds a generator whose next outputs equal those of
    the generator [state] was read from. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val skip : t -> int -> unit
(** [skip t n] advances [t] past its next [n] outputs in O(1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> float -> float
(** [exponential t lambda] draws from Exp(lambda) (mean [1. /. lambda]). *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Heavy-tailed Pareto draw with shape [alpha] and scale [x_min]. *)
