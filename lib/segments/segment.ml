type kind = Up | Down | Core_seg

type hop_field = {
  as_idx : int;
  ingress : Id.iface;
  egress : Id.iface;
  link_in : int;
  link_out : int;
  peers : int array;
  expiry : float;
  mac : string;
}

type t = {
  kind : kind;
  origin : int;
  leaf : int;
  timestamp : float;
  expiry : float;
  hops : hop_field array;
  links : int array;
}

let mac_payload ~as_idx ~if1 ~if2 ~expiry =
  let lo = min if1 if2 and hi = max if1 if2 in
  Printf.sprintf "hf|%d|%d|%d|%.0f" as_idx lo hi expiry

let hop_mac keys ~as_idx ~if1 ~if2 ~expiry =
  Hmac.truncated ~key:(Fwd_keys.key keys as_idx) ~length:6
    (mac_payload ~as_idx ~if1 ~if2 ~expiry)

let terminate g keys ~kind ~holder (pcb : Pcb.t) =
  let nh = Array.length pcb.Pcb.hops in
  if nh = 0 then invalid_arg "Segment.terminate: PCB has no hops";
  let expiry = Pcb.expires_at pcb in
  let field ~as_idx ~ingress ~egress ~link_in ~link_out ~peers =
    {
      as_idx;
      ingress;
      egress;
      link_in;
      link_out;
      peers;
      expiry;
      mac = hop_mac keys ~as_idx ~if1:ingress ~if2:egress ~expiry;
    }
  in
  let hops =
    Array.init (nh + 1) (fun i ->
        if i < nh then begin
          let h = pcb.Pcb.hops.(i) in
          let link_in = if i = 0 then -1 else pcb.Pcb.hops.(i - 1).Pcb.link in
          field ~as_idx:h.Pcb.asn ~ingress:h.Pcb.ingress ~egress:h.Pcb.egress
            ~link_in ~link_out:h.Pcb.link ~peers:h.Pcb.peers
        end
        else begin
          (* Terminal entry for the holder, advertising its peering
             links so peering shortcuts can end (or start) here. *)
          let last = pcb.Pcb.hops.(nh - 1) in
          let ingress = Graph.iface_of (Graph.link g last.Pcb.link) holder in
          let peers =
            Array.of_list
              (List.filter_map
                 (fun (h : Graph.half_link) ->
                   if h.Graph.dir = Graph.To_peer then Some h.Graph.via else None)
                 (Array.to_list (Graph.adj g holder)))
          in
          field ~as_idx:holder ~ingress ~egress:0 ~link_in:last.Pcb.link
            ~link_out:(-1) ~peers
        end)
  in
  {
    kind;
    origin = pcb.Pcb.origin;
    leaf = holder;
    timestamp = pcb.Pcb.timestamp;
    expiry;
    hops;
    links = Array.copy pcb.Pcb.links;
  }

let mac_valid keys (hf : hop_field) =
  Hmac.verify
    ~key:(Fwd_keys.key keys hf.as_idx)
    ~tag:hf.mac
    (mac_payload ~as_idx:hf.as_idx ~if1:hf.ingress ~if2:hf.egress
       ~expiry:hf.expiry)

let contains_link t l = Array.exists (fun x -> x = l) t.links

let is_valid t ~now = now < t.expiry

let registration_bytes t =
  Wire.path_segment_registration_bytes ~hops:(Array.length t.hops)

let write_hop w h =
  Snapshot.w_int w h.as_idx;
  Snapshot.w_int w h.ingress;
  Snapshot.w_int w h.egress;
  Snapshot.w_int w h.link_in;
  Snapshot.w_int w h.link_out;
  Snapshot.w_arr w Snapshot.w_int h.peers;
  Snapshot.w_f64 w h.expiry;
  Snapshot.w_str w h.mac

let read_hop r =
  let as_idx = Snapshot.r_int r in
  let ingress = Snapshot.r_int r in
  let egress = Snapshot.r_int r in
  let link_in = Snapshot.r_int r in
  let link_out = Snapshot.r_int r in
  let peers = Snapshot.r_arr r Snapshot.r_int in
  let expiry = Snapshot.r_f64 r in
  let mac = Snapshot.r_str r in
  { as_idx; ingress; egress; link_in; link_out; peers; expiry; mac }

let write w t =
  Snapshot.w_u8 w (match t.kind with Up -> 0 | Down -> 1 | Core_seg -> 2);
  Snapshot.w_int w t.origin;
  Snapshot.w_int w t.leaf;
  Snapshot.w_f64 w t.timestamp;
  Snapshot.w_f64 w t.expiry;
  Snapshot.w_arr w write_hop t.hops;
  Snapshot.w_arr w Snapshot.w_int t.links

let read r =
  let kind =
    match Snapshot.r_u8 r with
    | 0 -> Up
    | 1 -> Down
    | 2 -> Core_seg
    | v -> Snapshot.corrupt "bad segment kind %d" v
  in
  let origin = Snapshot.r_int r in
  let leaf = Snapshot.r_int r in
  let timestamp = Snapshot.r_f64 r in
  let expiry = Snapshot.r_f64 r in
  let hops = Snapshot.r_arr r read_hop in
  let links = Snapshot.r_arr r Snapshot.r_int in
  { kind; origin; leaf; timestamp; expiry; hops; links }
