(** SCION endpoint with multi-path failover (§1, §4.1).

    The endpoint fetches a set of paths once (long path lifetimes make
    this cheap, §4.1), keeps them ordered by preference, and on an SCMP
    link-failure notification immediately switches to the best path not
    containing the failed link — no routing convergence is involved. *)

type t

val create : Control_service.t -> Forwarding.network -> src:int -> dst:int -> t
(** Resolves the path set at creation time. *)

val available_paths : t -> Fwd_path.t list
(** Paths not (yet) excluded by failure notifications, in preference
    order. *)

val active_path : t -> Fwd_path.t option

val send : t -> ?payload_bytes:int -> now:float -> unit -> Forwarding.result
(** Send one packet on the active path. On a link-failure drop the
    endpoint processes the SCMP message, fails over, and retries on the
    next path — repeatedly if needed — returning the final outcome.
    Failovers are counted in {!failovers}. *)

val failovers : t -> int
(** Path switches forced by link-failure SCMPs over the endpoint's
    lifetime. *)

