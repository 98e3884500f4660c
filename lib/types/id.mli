(** Core SCION identifiers (§2.1).

    Routing is based on the [(ISD, AS)] tuple; host addressing appends a
    local address that inter-domain routing never inspects. AS numbers
    live in a 48-bit namespace that extends today's 32-bit BGP space. *)

type isd = int
(** Isolation Domain number (16-bit in SCION; we keep [int]). *)

type asn = int
(** AS number in the 48-bit SCION namespace. *)

type ia = { isd : isd; asn : asn }
(** The [(ISD, AS)] routing tuple. *)

type iface = int
(** AS-local inter-domain interface identifier. Interface 0 is reserved
    to mean "this AS" (origination / termination). *)

val ia : isd -> asn -> ia

val ia_to_string : ia -> string
(** Prints as ["<isd>-<asn>"], e.g. ["1-42"]. *)

val ia_of_string : string -> ia option
(** Parses ["<isd>-<asn>"]. *)

val compare_ia : ia -> ia -> int

val equal_ia : ia -> ia -> bool

val max_bgp_asn : int
(** 2^32 - 1: the largest AS number inherited from today's Internet. *)

val max_scion_asn : int
(** 2^48 - 1: the largest AS number in the extended SCION namespace. *)

val valid_asn : asn -> bool
(** Within the 48-bit namespace and non-negative. *)

type host_addr =
  | Ipv4 of int32
  | Ipv6 of string  (** 16 raw bytes *)
  | Mac of string  (** 6 raw bytes *)
(** Local addresses: not globally unique, never used in inter-domain
    forwarding (§2.1). *)

type endpoint = { host_ia : ia; local : host_addr }
(** The full [(ISD, AS, local address)] 3-tuple. *)

val pp_endpoint : Format.formatter -> endpoint -> unit
