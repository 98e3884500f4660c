(** HMAC-SHA256 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val truncated : key:string -> length:int -> string -> string
(** Tag truncated to [length] bytes (SCION hop fields use 6-byte MACs).
    Raises [Invalid_argument] if [length] is not in [\[1, 32\]]. *)

val verify : key:string -> tag:string -> string -> bool
(** Constant-time comparison of [tag] against the (possibly truncated,
    by [String.length tag]) recomputed tag. *)
