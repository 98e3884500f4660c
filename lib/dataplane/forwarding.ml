type packet = {
  path : Fwd_path.t;
  mutable position : int;
  payload_bytes : int;
}

let packet path ?(payload_bytes = 1000) () = { path; position = 0; payload_bytes }

type drop_reason =
  | Bad_mac of int
  | Expired_hop of int
  | Link_down of int
  | Unauthorized_interface of int
  | Topology_mismatch of int

type result =
  | Delivered of { hops : int; trace : int list }
  | Dropped of { at_as : int; reason : drop_reason; scmp : Scmp.message option }

type network = {
  graph : Graph.t;
  keys : Fwd_keys.t;
  mutable failed_links : int list;
}

let network graph keys = { graph; keys; failed_links = [] }

let fail_link net l =
  if not (List.mem l net.failed_links) then net.failed_links <- l :: net.failed_links

(* The in/out interfaces of a crossing must be authorised by its proofs:
   interface 0 (local origination/delivery) is always allowed; a
   peering egress is allowed when the link is advertised in a proof. *)
let interface_authorised (c : Fwd_path.crossing) ~iface ~link =
  iface = 0
  || List.exists
       (fun (p : Segment.hop_field) ->
         p.Segment.ingress = iface || p.Segment.egress = iface
         || Array.exists (fun l -> l = link) p.Segment.peers)
       c.Fwd_path.proofs

let validate_crossing net ~now (c : Fwd_path.crossing) =
  let v = c.Fwd_path.as_idx in
  if not (List.for_all (Segment.mac_valid net.keys) c.Fwd_path.proofs) then
    Error (Bad_mac v)
  else if
    List.exists (fun (p : Segment.hop_field) -> now >= p.Segment.expiry) c.Fwd_path.proofs
  then Error (Expired_hop v)
  else if
    not
      (interface_authorised c ~iface:c.Fwd_path.in_if ~link:c.Fwd_path.in_link
      && interface_authorised c ~iface:c.Fwd_path.out_if ~link:c.Fwd_path.out_link)
  then Error (Unauthorized_interface v)
  else Ok ()

let forward net ~now pkt =
  let crossings = pkt.path.Fwd_path.crossings in
  let n = Array.length crossings in
  let rec step i trace =
    if i >= n then
      Delivered { hops = n; trace = List.rev trace }
    else begin
      let c = crossings.(i) in
      let v = c.Fwd_path.as_idx in
      pkt.position <- i;
      match validate_crossing net ~now c with
      | Error reason -> Dropped { at_as = v; reason; scmp = None }
      | Ok () ->
          if c.Fwd_path.out_link < 0 then step (i + 1) (v :: trace)
          else begin
            let l = c.Fwd_path.out_link in
            let lk = Graph.link net.graph l in
            let connects_next =
              i + 1 < n
              &&
              let next = crossings.(i + 1).Fwd_path.as_idx in
              (lk.Graph.a = v && lk.Graph.b = next)
              || (lk.Graph.b = v && lk.Graph.a = next)
            in
            if not connects_next then
              Dropped { at_as = v; reason = Topology_mismatch v; scmp = None }
            else if List.mem l net.failed_links then
              Dropped
                {
                  at_as = v;
                  reason = Link_down l;
                  scmp = Some (Scmp.link_failure lk ~origin_as:v ~now);
                }
            else step (i + 1) (v :: trace)
          end
    end
  in
  step 0 []
