(** SCION packet header wire format.

    A byte-level encoding of the packet-carried forwarding state: the
    common header (version, header/payload lengths), the address header
    (source and destination [(ISD, AS)] plus IPv4 hosts), and the path —
    every AS crossing with its interfaces, traversed links and hop-field
    proofs (interface pair, expiry, 6-byte MAC). Big-endian throughout,
    written and read through {!Snapshot}'s fixed-width fields.

    The decoder is total: malformed input yields [Error], never an
    exception, and a decoded header re-encodes to the identical bytes. *)

type header = {
  src : Id.endpoint;
  dst : Id.endpoint;
  payload_len : int;
  path : Fwd_path.t;
}

val encode : header -> string
(** Serialise; raises [Invalid_argument] if a field exceeds its wire
    range (interface ids are 16-bit, link ids 24-bit with [-1] for
    none, AS crossings and proofs 8-bit counts, payload length 16-bit)
    or a raw field has the wrong length (IPv6 16 bytes, MAC address and
    hop-field MAC 6 bytes). *)

val decode : string -> (header, string) result
(** Parse a header produced by {!encode}. Truncated input, an unknown
    version, host-address or path-combination tag, and trailing bytes
    yield [Error] with the reason, never an exception. *)

val encoded_size : header -> int
(** Exact wire size of {!encode}'s output. *)

