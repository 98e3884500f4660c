type hop = {
  asn : int;
  ingress : Id.iface;
  egress : Id.iface;
  link : int;
  peers : int array;
}

type t = {
  origin : int;
  timestamp : float;
  lifetime : float;
  hops : hop array;
  links : int array;
  key : string;
  signatures : string list;
}

(* Link ids are encoded as 3 bytes each; sufficient for 2^24 links. *)
let put_link b i l =
  Bytes.set b i (Char.chr (l land 0xFF));
  Bytes.set b (i + 1) (Char.chr ((l lsr 8) land 0xFF));
  Bytes.set b (i + 2) (Char.chr ((l lsr 16) land 0xFF))

(* Nothing writes [b] after it is filled, so it becomes the key without
   a copy. *)
let path_key links =
  let b = Bytes.create (3 * Array.length links) in
  Array.iteri (fun i l -> put_link b (3 * i) l) links;
  Bytes.unsafe_to_string b

(* Byte by byte against the key [extend] would build: [t]'s key, then
   the link's 3 bytes as [put_link] writes them. A loop, not a local
   recursive function, so a comparison allocates no closure. *)
let compare_extension_key t ~link key =
  let n = String.length t.key and m = String.length key in
  let len = n + 3 in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < len && !i < m do
    let a =
      if !i < n then Char.code (String.unsafe_get t.key !i)
      else (link lsr (8 * (!i - n))) land 0xFF
    in
    c := Int.compare a (Char.code (String.unsafe_get key !i));
    incr i
  done;
  if !c <> 0 then !c else Int.compare len m

let with_signature t s = { t with signatures = s :: t.signatures }

let origin_pcb ~origin ~now ~lifetime =
  {
    origin;
    timestamp = now;
    lifetime;
    hops = [||];
    links = [||];
    key = "";
    signatures = [];
  }

let make ~origin ~timestamp ~lifetime hops ~signatures =
  let links = Array.map (fun h -> h.link) hops in
  { origin; timestamp; lifetime; hops; links; key = path_key links; signatures }

let extend t ~asn ~ingress ~egress ~link ~peers =
  let nh = Array.length t.hops in
  let hops = Array.make (nh + 1) { asn; ingress; egress; link; peers } in
  Array.blit t.hops 0 hops 0 nh;
  let links = Array.make (nh + 1) link in
  Array.blit t.links 0 links 0 nh;
  { t with hops; links; key = path_key links }

let expires_at t = t.timestamp +. t.lifetime

let is_valid t ~now = now >= t.timestamp && now < expires_at t

let num_hops t = Array.length t.hops

let contains_as t a =
  t.origin = a
  ||
  let hops = t.hops in
  let n = Array.length hops in
  let i = ref 0 in
  while !i < n && hops.(!i).asn <> a do
    incr i
  done;
  !i < n

let last_link t =
  let n = Array.length t.links in
  if n = 0 then None else Some t.links.(n - 1)

(* The one size formula: [hops] AS entries advertising [peers] peering
   links in total, 16 bytes per peering entry. *)
let size ~hops ~peers = Wire.pcb_bytes ~hops + (16 * peers)

let advertised_peers t =
  Array.fold_left (fun acc h -> acc + Array.length h.peers) 0 t.hops

let wire_bytes t = size ~hops:(num_hops t) ~peers:(advertised_peers t)

let extension_wire_bytes t ~peers =
  size ~hops:(num_hops t + 1) ~peers:(advertised_peers t + peers)

let signable_bytes t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "pcb|%d|%.3f|%.0f|" t.origin t.timestamp t.lifetime);
  Array.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%d:%d:%d;" h.asn h.ingress h.egress h.link))
    t.hops;
  Buffer.contents buf
