type header = {
  src : Id.endpoint;
  dst : Id.endpoint;
  payload_len : int;
  path : Fwd_path.t;
}

let version = 1

(* Link ids are 24-bit on the wire, with -1 ("none") as 0xFFFFFF. *)
let write_link w v =
  if v < -1 || v > 0xFFFFFE then
    invalid_arg "Scion_header: link id out of range";
  Snapshot.w_u24 w (if v = -1 then 0xFFFFFF else v)

let read_link r =
  let v = Snapshot.r_u24 r in
  if v = 0xFFFFFF then -1 else v

(* --- Addresses --- *)

let write_host w = function
  | Id.Ipv4 v ->
      Snapshot.w_u8 w 1;
      Snapshot.w_u32 w (Int32.to_int v land 0xFFFFFFFF)
  | Id.Ipv6 raw when String.length raw = 16 ->
      Snapshot.w_u8 w 2;
      Snapshot.w_raw w raw
  | Id.Mac raw when String.length raw = 6 ->
      Snapshot.w_u8 w 3;
      Snapshot.w_raw w raw
  | Id.Ipv6 _ | Id.Mac _ -> invalid_arg "Scion_header: bad raw address length"

let read_host r =
  match Snapshot.r_u8 r with
  | 1 -> Id.Ipv4 (Int32.of_int (Snapshot.r_u32 r))
  | 2 -> Id.Ipv6 (Snapshot.r_raw r 16)
  | 3 -> Id.Mac (Snapshot.r_raw r 6)
  | t -> Snapshot.corrupt "unknown host address type %d" t

let write_endpoint w (e : Id.endpoint) =
  Snapshot.w_u16 w e.Id.host_ia.Id.isd;
  Snapshot.w_u48 w e.Id.host_ia.Id.asn;
  write_host w e.Id.local

let read_endpoint r =
  let isd = Snapshot.r_u16 r in
  let asn = Snapshot.r_u48 r in
  let local = read_host r in
  { Id.host_ia = Id.ia isd asn; local }

(* --- Path --- *)

let combination_tag = function
  | Fwd_path.Up_only -> 0
  | Fwd_path.Down_only -> 1
  | Fwd_path.Core_only -> 2
  | Fwd_path.Up_core -> 3
  | Fwd_path.Core_down -> 4
  | Fwd_path.Up_down -> 5
  | Fwd_path.Up_core_down -> 6
  | Fwd_path.Shortcut -> 7
  | Fwd_path.Peering_shortcut -> 8

let combination_of_tag = function
  | 0 -> Fwd_path.Up_only
  | 1 -> Fwd_path.Down_only
  | 2 -> Fwd_path.Core_only
  | 3 -> Fwd_path.Up_core
  | 4 -> Fwd_path.Core_down
  | 5 -> Fwd_path.Up_down
  | 6 -> Fwd_path.Up_core_down
  | 7 -> Fwd_path.Shortcut
  | 8 -> Fwd_path.Peering_shortcut
  | t -> Snapshot.corrupt "unknown path combination tag %d" t

let write_proof w (p : Segment.hop_field) =
  Snapshot.w_u32 w p.Segment.as_idx;
  Snapshot.w_u16 w p.Segment.ingress;
  Snapshot.w_u16 w p.Segment.egress;
  write_link w p.Segment.link_in;
  write_link w p.Segment.link_out;
  Snapshot.w_u8 w (Array.length p.Segment.peers);
  Array.iter (fun l -> Snapshot.w_u24 w l) p.Segment.peers;
  Snapshot.w_f64 w p.Segment.expiry;
  if String.length p.Segment.mac <> 6 then
    invalid_arg "Scion_header: MAC must be 6 bytes";
  Snapshot.w_raw w p.Segment.mac

let read_proof r =
  let as_idx = Snapshot.r_u32 r in
  let ingress = Snapshot.r_u16 r in
  let egress = Snapshot.r_u16 r in
  let link_in = read_link r in
  let link_out = read_link r in
  let peers = Array.init (Snapshot.r_u8 r) (fun _ -> Snapshot.r_u24 r) in
  let expiry = Snapshot.r_f64 r in
  let mac = Snapshot.r_raw r 6 in
  {
    Segment.as_idx;
    ingress;
    egress;
    link_in;
    link_out;
    peers;
    expiry;
    mac;
  }

let write_crossing w (cr : Fwd_path.crossing) =
  Snapshot.w_u32 w cr.Fwd_path.as_idx;
  Snapshot.w_u16 w cr.Fwd_path.in_if;
  Snapshot.w_u16 w cr.Fwd_path.out_if;
  write_link w cr.Fwd_path.in_link;
  write_link w cr.Fwd_path.out_link;
  Snapshot.w_u8 w (List.length cr.Fwd_path.proofs);
  List.iter (write_proof w) cr.Fwd_path.proofs

let read_crossing r =
  let as_idx = Snapshot.r_u32 r in
  let in_if = Snapshot.r_u16 r in
  let out_if = Snapshot.r_u16 r in
  let in_link = read_link r in
  let out_link = read_link r in
  let proofs = List.init (Snapshot.r_u8 r) (fun _ -> read_proof r) in
  { Fwd_path.as_idx; in_if; out_if; in_link; out_link; proofs }

let encode h =
  let w = Snapshot.writer () in
  Snapshot.w_u8 w version;
  Snapshot.w_u16 w h.payload_len;
  write_endpoint w h.src;
  write_endpoint w h.dst;
  Snapshot.w_u8 w (combination_tag h.path.Fwd_path.combination);
  Snapshot.w_u8 w (Array.length h.path.Fwd_path.crossings);
  Array.iter (write_crossing w) h.path.Fwd_path.crossings;
  Snapshot.w_u8 w (Array.length h.path.Fwd_path.links);
  Array.iter (fun l -> Snapshot.w_u24 w l) h.path.Fwd_path.links;
  Snapshot.contents w

let decode s =
  try
    let r = Snapshot.reader s in
    let v = Snapshot.r_u8 r in
    if v <> version then Snapshot.corrupt "unsupported version %d" v;
    let payload_len = Snapshot.r_u16 r in
    let src = read_endpoint r in
    let dst = read_endpoint r in
    let combination = combination_of_tag (Snapshot.r_u8 r) in
    let crossings = Array.init (Snapshot.r_u8 r) (fun _ -> read_crossing r) in
    let links = Array.init (Snapshot.r_u8 r) (fun _ -> Snapshot.r_u24 r) in
    Snapshot.r_end r;
    Ok
      {
        src;
        dst;
        payload_len;
        path = { Fwd_path.crossings; links; combination };
      }
  with Snapshot.Corrupt msg -> Error msg

let encoded_size h = String.length (encode h)
