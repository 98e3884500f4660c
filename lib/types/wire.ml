(* SCION PCB *)

let signature_bytes = 96
let pcb_header_bytes = 32
let hop_field_bytes = 16
let as_entry_meta_bytes = 48

let pcb_bytes ~hops =
  pcb_header_bytes + (hops * (hop_field_bytes + as_entry_meta_bytes + signature_bytes))

let path_segment_registration_bytes ~hops =
  (* Registration re-sends the segment plus a small request header. *)
  16 + pcb_bytes ~hops

(* BGP, RFC 4271 *)

let bgp_header_bytes = 19

let bgp_update_bytes ~as_path_len ~prefixes =
  let origin = 4 in
  let as_path = 3 + 2 + (4 * as_path_len) in
  let next_hop = 7 in
  let nlri = 5 * prefixes in
  bgp_header_bytes + 2 + 2 + origin + as_path + next_hop + nlri

let bgp_withdraw_bytes ~prefixes = bgp_header_bytes + 2 + (5 * prefixes) + 2

(* BGPsec, RFC 8205 *)

let bgpsec_update_bytes ~as_path_len =
  let base = bgp_header_bytes + 2 + 2 + 4 (* ORIGIN *) + 7 (* NEXT_HOP *) + 5 (* NLRI *) in
  let secure_path = 2 + (as_path_len * 6) in
  let signature_block = 3 + (as_path_len * (20 + 2 + signature_bytes)) in
  base + secure_path + signature_block
