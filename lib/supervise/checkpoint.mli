(** Versioned, integrity-checked checkpoint files.

    A checkpoint is a framed {!Snapshot} payload:

    {v magic "SCKP" | version | schema tag | payload | SHA-256(payload) v}

    {!load} verifies all four layers — magic, version, schema and hash
    — and raises {!Snapshot.Corrupt} on any mismatch, so a truncated,
    bit-rotted or foreign file can never resume a run with silently
    wrong state. The schema tag should bind the checkpoint to its
    configuration (e.g. include a config fingerprint), making resume
    with different flags an error instead of undefined behaviour.

    Writes are atomic (temp file + rename): a crash mid-save leaves
    the previous checkpoint readable. *)

val save :
  dir:string -> name:string -> schema:string -> version:int -> string -> string
(** [save ~dir ~name ~schema ~version payload] writes
    [dir/name] (creating [dir] if missing) and returns the path. *)

val load : dir:string -> name:string -> schema:string -> version:int -> string
(** Read back a payload. Raises {!Snapshot.Corrupt} on a malformed or
    mismatching frame or when [dir/name] is a directory, [Sys_error] if
    it does not exist or cannot be read. *)

val numbered_name : prefix:string -> n:int -> string
(** [prefix.%06d.ckpt] — the naming convention for checkpoint series. *)

val latest : dir:string -> prefix:string -> (int * string) option
(** Highest-numbered checkpoint of a series: [(n, filename)]. [None]
    if the directory does not exist or holds no matching file. *)
