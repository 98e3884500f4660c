let magic = "SCKP"

let frame ~schema ~version payload =
  let w = Snapshot.writer () in
  Snapshot.w_raw w magic;
  Snapshot.w_int w version;
  Snapshot.w_str w schema;
  Snapshot.w_str w payload;
  Snapshot.w_str w (Sha256.digest payload);
  Snapshot.contents w

let unframe ~schema ~version data =
  let r = Snapshot.reader data in
  if Snapshot.r_raw r (String.length magic) <> magic then
    raise (Snapshot.Corrupt "not a checkpoint file (bad magic)");
  let v = Snapshot.r_int r in
  if v <> version then
    raise
      (Snapshot.Corrupt (Printf.sprintf "checkpoint version %d, expected %d" v version));
  let s = Snapshot.r_str r in
  if s <> schema then
    raise
      (Snapshot.Corrupt (Printf.sprintf "checkpoint schema %S, expected %S" s schema));
  let payload = Snapshot.r_str r in
  let digest = Snapshot.r_str r in
  Snapshot.r_end r;
  if digest <> Sha256.digest payload then
    raise (Snapshot.Corrupt "checkpoint integrity hash mismatch");
  payload

let write_file path data =
  (* Atomic: a crash mid-write leaves the previous checkpoint intact. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc data;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save ~dir ~name ~schema ~version payload =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir name in
  write_file path (frame ~schema ~version payload);
  path

let load ~dir ~name ~schema ~version =
  let path = Filename.concat dir name in
  if Sys.is_directory path then
    raise (Snapshot.Corrupt "a directory, not a checkpoint file");
  unframe ~schema ~version (read_file path)

let numbered_name ~prefix ~n = Printf.sprintf "%s.%06d.ckpt" prefix n

let parse_numbered ~prefix file =
  let head = prefix ^ "." and tail = ".ckpt" in
  let hl = String.length head and tl = String.length tail in
  let fl = String.length file in
  if
    fl > hl + tl
    && String.sub file 0 hl = head
    && String.sub file (fl - tl) tl = tail
  then int_of_string_opt (String.sub file hl (fl - hl - tl))
  else None

let latest ~dir ~prefix =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else
    Array.fold_left
      (fun acc file ->
        match parse_numbered ~prefix file with
        | None -> acc
        | Some n -> (
            match acc with
            | Some (best, _) when best >= n -> acc
            | _ -> Some (n, file)))
      None (Sys.readdir dir)
