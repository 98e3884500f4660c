(** Border-router packet forwarding (§2.3).

    Routers are stateless: each crossing of a forwarding path is
    validated against the AS's forwarding key (hop-field MAC + expiry)
    and against the topology (the claimed interfaces must belong to the
    traversed links). A failed link triggers an SCMP notification back
    to the source (§4.1, Path Revocations). *)

type packet = {
  path : Fwd_path.t;
  mutable position : int;  (** index of the crossing being processed *)
  payload_bytes : int;
}

val packet : Fwd_path.t -> ?payload_bytes:int -> unit -> packet

type drop_reason =
  | Bad_mac of int  (** AS where validation failed *)
  | Expired_hop of int
  | Link_down of int  (** link id *)
  | Unauthorized_interface of int  (** AS where in/out did not match proofs *)
  | Topology_mismatch of int

type result =
  | Delivered of { hops : int; trace : int list }  (** AS trace src→dst *)
  | Dropped of { at_as : int; reason : drop_reason; scmp : Scmp.message option }

type network = {
  graph : Graph.t;
  keys : Fwd_keys.t;
  mutable failed_links : int list;
}

val network : Graph.t -> Fwd_keys.t -> network

val fail_link : network -> int -> unit
(** Mark a link as failed; routers adjacent to it emit SCMP messages
    when packets try to cross it. *)

val forward : network -> now:float -> packet -> result
(** Walk the packet across the network, validating each crossing. *)
