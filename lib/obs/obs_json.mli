(** Minimal JSON document builder for the observability exports.

    The simulator's dependency footprint is deliberately tiny (no
    [yojson] in the build environment), so the machine-readable exports
    ({!Registry}, {!Trace}, {!Timer}) share this hand-rolled writer. It
    only builds and prints — there is no parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** [nan] and infinities are printed as [null] (JSON has no
          representation for them). *)
  | String of string  (** Escaped on output. *)
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : ?indent:int -> t -> string
(** Human-diffable rendering, one field per line ([indent] defaults to
    2 spaces), with a trailing newline. *)
