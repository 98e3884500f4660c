type t = (int, Hmac.key) Hashtbl.t

let create () = Hashtbl.create 64

let key t v =
  match Hashtbl.find_opt t v with
  | Some k -> k
  | None ->
      (* The 0 is the key generation: keys are never rotated. *)
      let k =
        Hmac.prepare (Sha256.digest (Printf.sprintf "scion-fwd-key:0:%d" v))
      in
      Hashtbl.replace t v k;
      k
