let digest_size = 32
let block_size = 64

(* Words are native ints holding 32-bit values: every sum is masked
   back to 32 bits, and nothing is boxed. *)
let mask = 0xffff_ffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let h0 =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Fold the 64-byte block at [off] of [data] into the chaining state
   [h], with [w] as the message-schedule scratch. *)
let compress h w data off =
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (String.get_int32_be data (off + (t * 4))) land mask
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + k.(t) + w.(t) in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

type prefix = { chain : int array; blocks : int }

let empty = { chain = h0; blocks = 0 }

(* Compress the whole blocks of [s] that start before [whole] into [h]. *)
let absorb h w s whole =
  let off = ref 0 in
  while !off < whole do
    compress h w s !off;
    off := !off + block_size
  done

let hash_prefix s =
  let len = String.length s in
  if len mod block_size <> 0 then
    invalid_arg "Sha256.hash_prefix: length not a multiple of the block size";
  let h = Array.copy h0 in
  absorb h (Array.make 64 0) s len;
  { chain = h; blocks = len / block_size }

let digest_from p s =
  let h = Array.copy p.chain and w = Array.make 64 0 in
  let len = String.length s in
  let whole = len - (len mod block_size) in
  absorb h w s whole;
  (* The last one or two blocks: the remaining bytes, 0x80, zeros and
     the message length in bits, the prefix's blocks included, as a
     64-bit big-endian integer. *)
  let rest = len - whole in
  let tail_len =
    if rest + 9 <= block_size then block_size else 2 * block_size
  in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string s whole tail 0 rest;
  Bytes.set tail rest '\x80';
  let bits = Int64.mul (Int64.of_int ((p.blocks * block_size) + len)) 8L in
  Bytes.set_int64_be tail (tail_len - 8) bits;
  let tail = Bytes.unsafe_to_string tail in
  compress h w tail 0;
  if tail_len > block_size then compress h w tail block_size;
  let out = Bytes.create digest_size in
  Array.iteri (fun i x -> Bytes.set_int32_be out (i * 4) (Int32.of_int x)) h;
  Bytes.unsafe_to_string out

let digest s = digest_from empty s

let hex s =
  let d = digest s in
  let digits = "0123456789abcdef" in
  String.init (2 * digest_size) (fun i ->
      let b = Char.code d.[i / 2] in
      digits.[if i land 1 = 0 then b lsr 4 else b land 15])
