(** Path segments (§2.2–2.3).

    A PCB received by an AS is terminated into a path segment: the
    terminating AS appends its own entry with egress 0, and every AS
    entry carries a hop field — the ingress/egress interface pair
    protected by a 6-byte MAC keyed with the AS's forwarding secret.
    Up- and down-path segments are interchangeable by reversing
    traversal direction; core-path segments connect core ASes. *)

type kind = Up | Down | Core_seg

type hop_field = {
  as_idx : int;
  ingress : Id.iface;  (** interface on the origin side; 0 at origin *)
  egress : Id.iface;  (** interface on the leaf side; 0 at the leaf *)
  link_in : int;  (** link id on the origin side; -1 at origin *)
  link_out : int;  (** link id on the leaf side; -1 at the leaf *)
  peers : int array;  (** advertised peering links of this AS *)
  expiry : float;
  mac : string;  (** 6-byte truncated HMAC over the hop field *)
}

type t = {
  kind : kind;
  origin : int;  (** core AS that initiated the underlying PCB *)
  leaf : int;  (** AS that terminated the PCB *)
  timestamp : float;
  expiry : float;
  hops : hop_field array;  (** origin first, leaf last *)
  links : int array;  (** traversed link ids, origin → leaf order *)
}

val terminate : Graph.t -> Fwd_keys.t -> kind:kind -> holder:int -> Pcb.t -> t
(** [terminate g keys ~kind ~holder pcb] turns a stored PCB into a
    segment at [holder] (the AS whose beacon store held it), appending
    the holder's terminal hop field. Raises [Invalid_argument] if the
    PCB has no hops. *)

val mac_valid : Fwd_keys.t -> hop_field -> bool
(** The hop field's MAC verifies under its AS's forwarding key. The MAC
    covers the AS, the interface pair and the expiry; it is symmetric in
    the interface pair, so a hop field verifies in both traversal
    directions (up/down interchangeability, §2.2). *)

val contains_link : t -> int -> bool

val is_valid : t -> now:float -> bool

val registration_bytes : t -> int
(** Wire size of registering this segment at a path server (§4.1). *)

(** {1 Checkpointing} *)

val write : Snapshot.writer -> t -> unit
(** Every field, hop fields included, in declaration order. *)

val read : Snapshot.reader -> t
(** Inverse of {!write}; raises only {!Snapshot.Corrupt}. *)
