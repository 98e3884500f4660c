type scheme = Ecdsa_p384 | Ecdsa_p256 | Ed25519

let signature_size = function Ecdsa_p384 -> 96 | Ecdsa_p256 -> 64 | Ed25519 -> 64

type keypair = { id : string; secret : Hmac.key; scheme : scheme }

type keystore = (string, keypair) Hashtbl.t

let create_keystore () = Hashtbl.create 64

let generate ks scheme ~id =
  if Hashtbl.mem ks id then
    invalid_arg (Printf.sprintf "Signature.generate: duplicate key id %S" id);
  let secret = Hmac.prepare (Sha256.digest ("scion-sim-key:" ^ id)) in
  let kp = { id; secret; scheme } in
  Hashtbl.replace ks id kp;
  kp

let key_id kp = kp.id

(* Expand the 32-byte HMAC tag to the scheme's wire size with counter-mode
   rehashing, so signatures have realistic length and remain deterministic. *)
let expand tag size =
  let buf = Buffer.create size in
  let counter = ref 0 in
  while Buffer.length buf < size do
    Buffer.add_string buf (Sha256.digest (tag ^ string_of_int !counter));
    incr counter
  done;
  String.sub (Buffer.contents buf) 0 size

let sign kp msg =
  let tag = Hmac.mac ~key:kp.secret msg in
  expand tag (signature_size kp.scheme)

let verify ks ~id ~msg ~signature =
  match Hashtbl.find_opt ks id with
  | None -> false
  | Some kp ->
      String.length signature = signature_size kp.scheme
      && String.equal signature (sign kp msg)
