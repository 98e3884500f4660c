(** Per-AS forwarding keys.

    Each AS derives hop-field MACs from a local secret key that never
    leaves the AS (§2.3: hop fields are cryptographically protected so
    paths cannot be altered). In the simulation, keys are derived
    deterministically per AS index. *)

type t

val create : unit -> t

val key : t -> int -> Hmac.key
(** The forwarding secret of an AS (32 bytes), derived on first use and
    cached prepared for HMAC ({!Hmac.prepare}), so every hop-field MAC
    of the AS starts from its precomputed padded-key hash states. *)
