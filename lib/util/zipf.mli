(** Zipf-distributed sampling.

    The paper relies on the Zipf distribution of Internet traffic
    destinations (§4.1, path-lookup caching) and on the heavy-tailed
    concentration of BGP updates on few prefixes (Fig. 5 churn model). *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] prepares sampling over ranks [1..n] with exponent [s]
    (probability of rank [k] proportional to [1 / k^s]). Raises
    [Invalid_argument] if [n <= 0] or [s < 0.]. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [\[0, n)] (0 = most popular), by inverse-CDF binary
    search over the precomputed cumulative weights. *)
