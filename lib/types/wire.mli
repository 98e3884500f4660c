(** Wire-size constants used for control-plane overhead accounting.

    SCION sizes follow the open-source SCION control-plane message
    layout (header + per-AS entries, each carrying a hop field and an
    ECDSA-P384 signature); BGP sizes follow RFC 4271 field definitions;
    BGPsec sizes follow RFC 8205 (one Secure_Path segment plus one
    signature per hop, no aggregation). All sizes in bytes. *)

(** {1 SCION PCB sizes} *)

val signature_bytes : int
(** 96: one ECDSA-P384 signature (§5.1), the size of every signature
    in a PCB AS entry and in a BGPsec Signature_Segment. *)

val pcb_bytes : hops:int -> int
(** Total PCB wire size for a path of [hops] AS entries: a 32-byte
    header (segment info: timestamp, segment id, origin IA) plus, per
    entry, a 16-byte hop field (interfaces, expiry, 6-byte MAC), 48
    bytes of metadata (IA, MTU, extension flags, certificate id) and
    one {!signature_bytes} signature. *)

val path_segment_registration_bytes : hops:int -> int
(** Size of registering one segment at a core path server (§4.1:
    roughly 10 KB per (de-)registration batch for typical ASes). *)

(** {1 BGP (RFC 4271) sizes} *)

val bgp_update_bytes : as_path_len:int -> prefixes:int -> int
(** An UPDATE carrying [prefixes] NLRI entries that share one attribute
    set with a 4-byte-ASN AS_PATH of [as_path_len] hops: header (19:
    marker 16 + length 2 + type 1) + withdrawn-len (2) + attrs-len (2)
    + ORIGIN (4) + AS_PATH (3 + 2 + 4·len) + NEXT_HOP (7) + NLRI (5
    each, /24-ish). *)

val bgp_withdraw_bytes : prefixes:int -> int
(** An UPDATE that only withdraws [prefixes] routes. *)

(** {1 BGPsec (RFC 8205) sizes} *)

val bgpsec_update_bytes : as_path_len:int -> int
(** A BGPsec UPDATE for a single prefix (no aggregation possible):
    BGP header + base attributes + per-hop Secure_Path segment (6) +
    per-hop Signature_Segment (SKI 20 + sig-len 2 + {!signature_bytes}). *)
