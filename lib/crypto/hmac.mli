(** HMAC-SHA256 (RFC 2104).

    A key is prepared once: {!prepare} hashes the two padded key blocks
    (key XOR ipad, key XOR opad) and keeps the SHA-256 state after each
    ({!Sha256.prefix}), as RFC 2104 §4 suggests. A tag then costs the
    compressions of the inner message and of the 32-byte inner digest
    only: two for a short message instead of four. *)

type key
(** A secret with its two padded-key hash states precomputed. *)

val prepare : string -> key
(** [prepare secret]; a secret longer than the 64-byte block is hashed
    first, a shorter one is zero-padded. *)

val mac : key:key -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val truncated : key:key -> length:int -> string -> string
(** Tag truncated to [length] bytes (SCION hop fields use 6-byte MACs).
    Raises [Invalid_argument] if [length] is not in [\[1, 32\]]. *)

val verify : key:key -> tag:string -> string -> bool
(** Constant-time comparison of [tag] against the (possibly truncated,
    by [String.length tag]) recomputed tag. *)
