exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- writer ---------------------------------------------------------- *)

type writer = Buffer.t

(* Small, because every stored PCB is encoded through its own writer;
   large snapshots grow the buffer by doubling. *)
let writer () = Buffer.create 128

let contents = Buffer.contents

(* Unsigned [bits]-bit field, most significant byte first. *)
let w_uint bits w v =
  if v < 0 || v lsr bits <> 0 then
    invalid_arg (Printf.sprintf "Snapshot.w_u%d: %d out of range" bits v);
  for byte = (bits / 8) - 1 downto 0 do
    Buffer.add_char w (Char.unsafe_chr ((v lsr (byte * 8)) land 0xFF))
  done

let w_u8 w v = w_uint 8 w v

let w_u16 w v = w_uint 16 w v

let w_u24 w v = w_uint 24 w v

let w_u32 w v = w_uint 32 w v

(* Inlined, so that [w_int] and [w_f64] keep the word unboxed. *)
let[@inline] w_i64 w v =
  for byte = 7 downto 0 do
    Buffer.add_char w
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (byte * 8)) land 0xFF))
  done

let w_int w v = w_i64 w (Int64.of_int v)

let w_f64 w v = w_i64 w (Int64.bits_of_float v)

let w_bool w v = w_u8 w (if v then 1 else 0)

let w_raw w s = Buffer.add_string w s

let w_str w s =
  w_int w (String.length s);
  Buffer.add_string w s

let w_list w f l =
  w_int w (List.length l);
  List.iter (f w) l

let w_arr w f a =
  w_int w (Array.length a);
  Array.iter (f w) a

let w_opt w f = function
  | None -> w_u8 w 0
  | Some v ->
      w_u8 w 1;
      f w v

let w_rng w rng = w_i64 w (Rng.state rng)

(* --- reader ---------------------------------------------------------- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let need r n =
  if n < 0 || n > String.length r.data - r.pos then
    corrupt "input truncated at byte %d (need %d more)" r.pos n

let r_uint bytes r =
  need r bytes;
  let v = ref 0 in
  for i = r.pos to r.pos + bytes - 1 do
    v := (!v lsl 8) lor Char.code r.data.[i]
  done;
  r.pos <- r.pos + bytes;
  !v

let r_u8 r = r_uint 1 r

let r_u16 r = r_uint 2 r

let r_u24 r = r_uint 3 r

let r_u32 r = r_uint 4 r

(* Inlined, so that [r_int] and [r_f64] keep the word unboxed. *)
let[@inline] r_i64 r =
  need r 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos]));
    r.pos <- r.pos + 1
  done;
  !v

let r_int r =
  let v = r_i64 r in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then corrupt "integer out of range: %Ld" v;
  i

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad bool tag %d" v

let r_len r what =
  let n = r_int r in
  if n < 0 then corrupt "implausible %s length %d" what n;
  if n > String.length r.data - r.pos then
    corrupt "input truncated: a %s of length %d is declared at byte %d, but \
             the input ends at byte %d"
      what n r.pos (String.length r.data);
  n

let r_raw r n =
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_str r = r_raw r (r_len r "string")

let r_list r f = List.init (r_len r "list") (fun _ -> f r)

let r_arr r f = Array.init (r_len r "array") (fun _ -> f r)

let r_opt r f =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | v -> corrupt "bad option tag %d" v

let r_sorted r what f =
  let prev = ref None in
  for _ = 1 to r_len r "list" do
    let k = f r in
    (match !prev with
    | Some p when compare p k >= 0 -> corrupt "%s out of order" what
    | _ -> ());
    prev := Some k
  done

let r_rng r = Rng.of_state (r_i64 r)

let r_end r =
  if r.pos <> String.length r.data then
    corrupt "trailing bytes: %d of %d consumed" r.pos (String.length r.data)
