(** Per-AS forwarding keys.

    Each AS derives hop-field MACs from a local secret key that never
    leaves the AS (§2.3: hop fields are cryptographically protected so
    paths cannot be altered). In the simulation, keys are derived
    deterministically per AS index. *)

type t

val create : unit -> t

val key : t -> int -> string
(** The forwarding secret of an AS (32 bytes, derived and cached). *)
