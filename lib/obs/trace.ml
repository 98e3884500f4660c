type level = Error | Warn | Info | Debug

let level_rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string = function
  | "error" -> Stdlib.Ok Error
  | "warn" | "warning" -> Stdlib.Ok Warn
  | "info" -> Stdlib.Ok Info
  | "debug" -> Stdlib.Ok Debug
  | s ->
      Stdlib.Error
        (Printf.sprintf "unknown trace level %S (error|warn|info|debug)" s)

type event = {
  time : float;
  level : level;
  category : string;
  message : string;
  fields : (string * string) list;
}

type sink =
  | Null
  | Stderr
  | Custom of (event -> unit)

type t = {
  max_level : level option;  (* [None]: tracing entirely off *)
  sink : sink;
  capacity : int;
  mutable ring : event array;  (* allocated on first emit *)
  mutable next : int;
  mutable stored : int;
  mutable emitted : int;
}

let null =
  {
    max_level = None;
    sink = Null;
    capacity = 0;
    ring = [||];
    next = 0;
    stored = 0;
    emitted = 0;
  }

let create ?(capacity = 4096) ?(sink = Null) level =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  {
    max_level = Some level;
    sink;
    capacity;
    ring = [||];
    next = 0;
    stored = 0;
    emitted = 0;
  }

let enabled t level =
  match t.max_level with
  | None -> false
  | Some max -> level_rank level <= level_rank max

let render ev =
  let fields =
    match ev.fields with
    | [] -> ""
    | fs ->
        " {" ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fs) ^ "}"
  in
  Printf.sprintf "[%12.3f] %-5s %s: %s%s" ev.time
    (level_to_string ev.level)
    ev.category ev.message fields

let to_sink t ev =
  match t.sink with
  | Null -> ()
  | Stderr ->
      output_string stderr (render ev);
      output_char stderr '\n';
      flush stderr
  | Custom f -> f ev

let store t ev =
  if t.capacity > 0 then begin
    if Array.length t.ring = 0 then t.ring <- Array.make t.capacity ev;
    t.ring.(t.next) <- ev;
    t.next <- (t.next + 1) mod t.capacity;
    if t.stored < t.capacity then t.stored <- t.stored + 1
  end

let emit t level ~time ~category ?(fields = []) message =
  if enabled t level then begin
    let ev = { time; level; category; message; fields } in
    t.emitted <- t.emitted + 1;
    store t ev;
    to_sink t ev
  end

let emitted t = t.emitted

let dropped t = t.emitted - t.stored

let events t =
  if t.stored = 0 then []
  else begin
    let start =
      if t.stored < t.capacity then 0 else t.next (* oldest surviving event *)
    in
    List.init t.stored (fun i -> t.ring.((start + i) mod t.capacity))
  end

let event_to_json ev =
  Obs_json.Obj
    [
      ("time", Obs_json.Float ev.time);
      ("level", Obs_json.String (level_to_string ev.level));
      ("category", Obs_json.String ev.category);
      ("message", Obs_json.String ev.message);
      ( "fields",
        Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.String v)) ev.fields)
      );
    ]

let to_json t =
  Obs_json.Obj
    [
      ("emitted", Obs_json.Int t.emitted);
      ("dropped", Obs_json.Int (dropped t));
      ("events", Obs_json.List (List.map event_to_json (events t)));
    ]
