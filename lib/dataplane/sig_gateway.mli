(** SCION-IP Gateway (SIG, §3.4).

    The SIG gives legacy IP hosts transparent access to the SCION
    network: it maps the destination IP address to a SCION AS through
    its ASMap table, fetches paths from the control service on the
    hosts' behalf, encapsulates the IP packet in a SCION header, and
    routes it via a border router. A carrier-grade SIG (CGSIG) is the
    same machinery aggregating many customer networks. *)

type t

val create : Control_service.t -> Forwarding.network -> local_as:int -> t

val add_mapping : t -> prefix:int32 -> prefix_len:int -> as_idx:int -> unit
(** Insert an ASMap entry (IPv4 prefix → SCION AS). Raises
    [Invalid_argument] for prefix lengths outside [\[0, 32\]]. *)

type send_error =
  | No_mapping  (** destination IP not in the ASMap *)
  | No_path  (** control service returned no path *)
  | Forwarding_failed of Forwarding.result

val send_ip :
  t -> now:float -> dst_ip:int32 -> payload_bytes:int -> (Forwarding.result, send_error) result
(** Encapsulate one IP packet, routed to the AS of the longest ASMap
    prefix matching [dst_ip], and forward it. The SCION encapsulation
    overhead — common and address headers plus the packed path (info
    and hop fields) — is accounted in {!stats}. *)

type stats = {
  packets_encapsulated : int;
  encapsulation_overhead_bytes : int;
  no_mapping_drops : int;
}

val stats : t -> stats
