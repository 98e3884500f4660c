(** Deterministic big-endian byte codec.

    The one writer/reader pair for every byte format in the repo: the
    checkpoint snapshots and the [Pcb_codec] wire format. Each
    checkpointable component owns its codec on top of these primitives
    — a [write] that emits its state in a canonical (sorted,
    hash-table-layout independent) order and a [read] that fills a live
    value directly and enforces the component's own invariants — so
    encoding the same logical state always yields the same bytes, and
    [encode (decode bytes) = bytes]. Floats are serialized as their
    IEEE-754 bit patterns, making the round-trip exact (including
    infinities and [nan]).

    Fixed-width writers are range-checked: [w_uN] raises
    [Invalid_argument] unless [0 <= v < 2^N], so a value never
    silently wraps. Reads are total: malformed input raises {!Corrupt},
    never an out-of-bounds access or a silently wrong value. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

(** {1 Writer} *)

type writer

val writer : unit -> writer

val contents : writer -> string

val w_u8 : writer -> int -> unit
(** One byte; [Invalid_argument] outside [0 .. 255]. *)

val w_u16 : writer -> int -> unit

val w_u24 : writer -> int -> unit

val w_u32 : writer -> int -> unit
(** [w_u16] … [w_u32]: 2, 3 and 4 big-endian bytes, each with the same
    range check as {!w_u8}. *)

val w_int : writer -> int -> unit
(** 8-byte big-endian (int63-safe). *)

val w_i64 : writer -> int64 -> unit

val w_f64 : writer -> float -> unit
(** IEEE-754 bit pattern; exact round-trip. *)

val w_bool : writer -> bool -> unit

val w_str : writer -> string -> unit

val w_raw : writer -> string -> unit
(** Append bytes with no length prefix (framing headers). *)

val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
(** A {!w_int} count, then the elements. *)

val w_arr : writer -> (writer -> 'a -> unit) -> 'a array -> unit
(** Same bytes as {!w_list} of the same elements. *)

val w_opt : writer -> (writer -> 'a -> unit) -> 'a option -> unit

val w_rng : writer -> Rng.t -> unit

(** {1 Reader} *)

type reader

val reader : string -> reader

val r_u8 : reader -> int

val r_u16 : reader -> int

val r_u24 : reader -> int

val r_u32 : reader -> int

val r_int : reader -> int

val r_i64 : reader -> int64

val r_f64 : reader -> float

val r_bool : reader -> bool

val r_str : reader -> string
(** A length-prefixed string. A negative length is reported as
    implausible, one that runs past the end of the input as
    truncation; so are the lengths of {!r_list} and {!r_arr}. *)

val r_raw : reader -> int -> string
(** [r_raw r n] reads exactly [n] bytes with no length prefix, the
    counterpart of {!w_raw}. *)

val r_list : reader -> (reader -> 'a) -> 'a list

val r_arr : reader -> (reader -> 'a) -> 'a array

val r_opt : reader -> (reader -> 'a) -> 'a option

val r_sorted : reader -> string -> (reader -> 'k) -> unit
(** [r_sorted r what f] reads a list written in strictly increasing key
    order: [f] reads one element, stores it where it belongs and
    returns its key. Raises {!Corrupt} naming [what] when a key is not
    greater (by [compare]) than its predecessor. *)

val r_rng : reader -> Rng.t

val r_end : reader -> unit
(** Raises {!Corrupt} unless the input is fully consumed. *)
