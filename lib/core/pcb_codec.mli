(** Wire codec for Path-segment Construction Beacons.

    The control-plane message format: a PCB is serialised when the
    beacon server propagates it, and parsed on receipt. Signatures are
    carried verbatim, so a decoded PCB verifies exactly like the
    original. Big-endian, written and read through {!Snapshot}'s
    fixed-width fields, led by a version byte (1). *)

val encode : Pcb.t -> string
(** Raises [Invalid_argument] when a field exceeds its wire range
    (origin and AS numbers 32-bit, interfaces 16-bit, links 24-bit, hop,
    peer and signature counts 8-bit, signature lengths 16-bit). *)

val decode : string -> (Pcb.t, string) result
(** Inverse of {!encode}. Total: truncated input, an unknown version
    and trailing bytes yield [Error] with the reason, never an
    exception. The PCB is built once with {!Pcb.make}, which recomputes
    the path key, so decoded PCBs interoperate with beacon stores. *)

val encoded_size : Pcb.t -> int

