type level = Error | Warn | Info | Debug

let rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

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

type sink = Stderr | Custom of (event -> unit)

(* [max_rank] -1 rejects every level: tracing entirely off. *)
type t = { max_rank : int; sink : sink }

let null = { max_rank = -1; sink = Custom ignore }

let create ?(sink = Stderr) level = { max_rank = rank level; sink }

let enabled t level = rank level <= t.max_rank

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

let emit t level ~time ~category ?(fields = []) message =
  if enabled t level then begin
    let ev = { time; level; category; message; fields } in
    match t.sink with
    | Stderr ->
        (* One write per line: the channel lock keeps lines from
           concurrent domains whole. *)
        output_string stderr (render ev ^ "\n");
        flush stderr
    | Custom f -> f ev
  end
