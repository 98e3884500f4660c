(** Minimal JSON document builder for the observability exports.

    The simulator's dependency footprint is deliberately tiny (no
    [yojson] in the build environment), so the machine-readable exports
    ({!Registry}, {!Trace}, {!Timer}) share this hand-rolled writer. It
    only builds and prints — there is no parser. *)

type t =
  | Null
  | Int of int
  | Float of float
      (** [nan] and infinities are printed as [null] (JSON has no
          representation for them). *)
  | String of string  (** Escaped on output. *)
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : t -> string
(** Human-diffable rendering, one field per line indented by 2 spaces
    per level, with a trailing newline. *)
