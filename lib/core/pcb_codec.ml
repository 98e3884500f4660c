let version = 1

let encode (p : Pcb.t) =
  let w = Snapshot.writer () in
  Snapshot.w_u8 w version;
  Snapshot.w_u32 w p.Pcb.origin;
  Snapshot.w_f64 w p.Pcb.timestamp;
  Snapshot.w_f64 w p.Pcb.lifetime;
  Snapshot.w_u8 w (Array.length p.Pcb.hops);
  Array.iter
    (fun (h : Pcb.hop) ->
      Snapshot.w_u32 w h.Pcb.asn;
      Snapshot.w_u16 w h.Pcb.ingress;
      Snapshot.w_u16 w h.Pcb.egress;
      Snapshot.w_u24 w h.Pcb.link;
      Snapshot.w_u8 w (Array.length h.Pcb.peers);
      Array.iter (fun l -> Snapshot.w_u24 w l) h.Pcb.peers)
    p.Pcb.hops;
  Snapshot.w_u8 w (List.length p.Pcb.signatures);
  List.iter
    (fun s ->
      Snapshot.w_u16 w (String.length s);
      Snapshot.w_raw w s)
    p.Pcb.signatures;
  Snapshot.contents w

let decode s =
  try
    let r = Snapshot.reader s in
    let v = Snapshot.r_u8 r in
    if v <> version then Snapshot.corrupt "unsupported PCB version %d" v;
    let origin = Snapshot.r_u32 r in
    let timestamp = Snapshot.r_f64 r in
    let lifetime = Snapshot.r_f64 r in
    let hops =
      Array.init (Snapshot.r_u8 r) (fun _ ->
          let asn = Snapshot.r_u32 r in
          let ingress = Snapshot.r_u16 r in
          let egress = Snapshot.r_u16 r in
          let link = Snapshot.r_u24 r in
          let peers =
            Array.init (Snapshot.r_u8 r) (fun _ -> Snapshot.r_u24 r)
          in
          { Pcb.asn; ingress; egress; link; peers })
    in
    let signatures =
      List.init (Snapshot.r_u8 r) (fun _ -> Snapshot.r_raw r (Snapshot.r_u16 r))
    in
    Snapshot.r_end r;
    Ok (Pcb.make ~origin ~timestamp ~lifetime hops ~signatures)
  with Snapshot.Corrupt msg -> Error msg

let encoded_size p = String.length (encode p)
