(** Path-segment Construction Beacons (§2.2).

    A PCB is initiated by a core AS and extended hop by hop: before
    propagating, each beacon server appends its AS entry carrying the
    ingress/egress interface pair of the traversed inter-domain link, a
    hop field for the data plane, and a signature. A PCB therefore
    encodes one path segment at inter-domain-interface granularity.

    A beaconing engine does not build the extension it sends: its
    outbox holds the parent and the interface, and the receiving store
    decides on the parent's hop count, origin, timestamp, lifetime and
    links, breaking ties with {!compare_extension_key}. Only a PCB the
    store keeps is built with {!extend}; the sender's accounting uses
    {!extension_wire_bytes}. *)

type hop = {
  asn : int;  (** AS index in the topology *)
  ingress : Id.iface;  (** receiving interface; 0 at the origin *)
  egress : Id.iface;  (** interface used to reach the next AS *)
  link : int;  (** link id of the egress link *)
  peers : int array;
      (** peering-link ids the AS advertised in its entry (intra-ISD
          beaconing, §2.2); enables peering shortcuts (§2.3) *)
}

type t = private {
  origin : int;  (** originating core AS index *)
  timestamp : float;  (** initiation time of this instance *)
  lifetime : float;
  hops : hop array;  (** AS entries from the origin onwards *)
  links : int array;  (** link ids traversed, in order *)
  key : string;  (** canonical identity of the {e path} (link sequence);
                     instances of the same path share the key *)
  signatures : string list;  (** per-AS-entry signatures, newest first
                                 (empty when crypto is disabled) *)
}

val origin_pcb : origin:int -> now:float -> lifetime:float -> t
(** A PCB as it exists inside its origin AS before the origin's own AS
    entry is appended: zero hops. *)

val make :
  origin:int ->
  timestamp:float ->
  lifetime:float ->
  hop array ->
  signatures:string list ->
  t
(** A PCB from all its fields at once (the codec's decoder): the links
    and the key are derived from the hops in one pass. [signatures] are
    newest first. The array is kept, not copied. *)

val extend :
  t ->
  asn:int ->
  ingress:Id.iface ->
  egress:Id.iface ->
  link:int ->
  peers:int array ->
  t
(** Append one AS entry; called by the beacon server just before
    propagation (the origin calls it with [ingress:0]). *)

val expires_at : t -> float

val is_valid : t -> now:float -> bool

val num_hops : t -> int
(** Number of AS entries (= AS-path length of the encoded segment). *)

val contains_as : t -> int -> bool
(** Loop check: is the AS already on the path (origin included)? *)

val last_link : t -> int option
(** The link over which the PCB reached its current holder. *)

val path_key : int array -> string
(** Canonical key for a link sequence (also used for candidate paths
    that have not been materialised as PCBs yet). *)

val compare_extension_key : t -> link:int -> string -> int
(** [compare_extension_key t ~link key] has the sign of
    [String.compare k key], where [k] is the key of [t] extended over
    [link] ([t]'s key followed by the link's 3 bytes, the [key]
    {!extend} computes), without building [k]. *)

val with_signature : t -> string -> t
(** Attach the newest AS entry's signature (computed over
    {!signable_bytes} of the extended PCB). *)

val wire_bytes : t -> int
(** On-the-wire size of the (already extended) PCB: {!Wire.pcb_bytes}
    of its hop count plus 16 bytes per advertised peering link. *)

val extension_wire_bytes : t -> peers:int -> int
(** The {!wire_bytes} of [t] extended by one AS entry that advertises
    [peers] peering links, without building the extension (the same
    formula). *)

val signable_bytes : t -> string
(** Deterministic serialisation of the PCB content covered by the next
    AS-entry signature. *)
