(** SHA-256 (FIPS 180-4), implemented from scratch on native ints
    masked to 32 bits. Used for PCB signing, hop-field MACs (via
    {!Hmac}) and content-addressed identifiers in the simulator. *)

val digest : string -> string
(** One-shot hash: 32 raw bytes. *)

val hex : string -> string
(** One-shot hash rendered as 64 lowercase hex characters. *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64. *)
