type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Finite floats only; [write] maps nan/infinity to null first. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float v ->
      if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr v)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

(* Spaces per nesting level of the pretty rendering. *)
let indent = 2

let rec write_indented buf ~level = function
  | List ([] : t list) -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List items ->
      let pad = String.make ((level + 1) * indent) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          write_indented buf ~level:(level + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (level * indent) ' ');
      Buffer.add_char buf ']'
  | Obj fields ->
      let pad = String.make ((level + 1) * indent) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          write_indented buf ~level:(level + 1) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (level * indent) ' ');
      Buffer.add_char buf '}'
  | leaf -> write buf leaf

let to_string_pretty j =
  let buf = Buffer.create 4096 in
  write_indented buf ~level:0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf
