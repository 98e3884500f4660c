let block_size = Sha256.block_size

type key = { inner : Sha256.prefix; outer : Sha256.prefix }

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  key ^ String.make (block_size - String.length key) '\000'

let xor_with s byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) s

(* RFC 2104 §4: the padded key blocks open every inner and outer hash
   of a key, so their compressions are done once, here. *)
let prepare key =
  let k0 = normalize_key key in
  {
    inner = Sha256.hash_prefix (xor_with k0 0x36);
    outer = Sha256.hash_prefix (xor_with k0 0x5c);
  }

let mac ~key msg =
  Sha256.digest_from key.outer (Sha256.digest_from key.inner msg)

let truncated ~key ~length msg =
  if length < 1 || length > Sha256.digest_size then
    invalid_arg "Hmac.truncated: length outside [1, 32]";
  String.sub (mac ~key msg) 0 length

let verify ~key ~tag msg =
  let n = String.length tag in
  if n = 0 || n > Sha256.digest_size then false
  else begin
    let expected = String.sub (mac ~key msg) 0 n in
    (* Constant-time comparison. *)
    let diff = ref 0 in
    for i = 0 to n - 1 do
      diff := !diff lor (Char.code tag.[i] lxor Char.code expected.[i])
    done;
    !diff = 0
  end
