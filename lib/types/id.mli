(** Core SCION identifiers (§2.1).

    Routing is based on the [(ISD, AS)] tuple. AS numbers live in a
    48-bit namespace that extends today's 32-bit BGP space. *)

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
