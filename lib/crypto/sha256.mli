(** SHA-256 (FIPS 180-4), implemented from scratch on native ints
    masked to 32 bits. Used for PCB signing, hop-field MACs (via
    {!Hmac}) and content-addressed identifiers in the simulator. *)

val digest : string -> string
(** One-shot hash: 32 raw bytes; {!digest_from} with an empty prefix. *)

type prefix
(** The chaining state after a whole number of 64-byte blocks: a
    message prefix hashed once and continued many times. HMAC keeps one
    per key for each of its two padded key blocks (RFC 2104 §4), so a
    tag costs the compressions of the message alone. *)

val hash_prefix : string -> prefix
(** [hash_prefix a] is the state after [a], whose length must be a
    multiple of {!block_size} ([Invalid_argument] otherwise). *)

val digest_from : prefix -> string -> string
(** [digest_from (hash_prefix a) s = digest (a ^ s)]. *)

val hex : string -> string
(** One-shot hash rendered as 64 lowercase hex characters. *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64. *)
