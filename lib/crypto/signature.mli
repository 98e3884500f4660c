(** Simulated digital signatures with exact wire-size accounting.

    The evaluation (§5) only depends on the {e size} of signatures
    (ECDSA-P384: 96-byte raw signatures) and on sign/verify acts being
    performed per hop. In this closed simulation we realise signatures
    as deterministic HMAC-SHA256 tags keyed by the signer's private key
    and padded to the scheme's wire size; verification recomputes the
    tag through a keystore that stands in for the SCION control-plane
    PKI. See DESIGN.md §2 for the substitution rationale. *)

type scheme = Ecdsa_p384 | Ecdsa_p256 | Ed25519

type keypair
(** Private signing key bound to a scheme and a key identifier. *)

type keystore
(** Maps key identifiers to verification material (simulation PKI). *)

val create_keystore : unit -> keystore

val generate : keystore -> scheme -> id:string -> keypair
(** [generate ks scheme ~id] creates a keypair deterministically derived
    from [id], registers it in [ks], and returns it. Raises
    [Invalid_argument] if [id] is already registered. *)

val key_id : keypair -> string

val sign : keypair -> string -> string
(** [sign kp msg] is a raw signature of the wire size of the [scheme]
    [kp] was generated with: 96 bytes for ECDSA-P384, 64 for ECDSA-P256
    and Ed25519. *)

val verify : keystore -> id:string -> msg:string -> signature:string -> bool
(** Checks the signature against the registered key for [id]. Unknown
    ids or wrong-size signatures verify as [false]. *)

