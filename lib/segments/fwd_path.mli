(** Packet-carried forwarding state (§2.3).

    An end-to-end forwarding path is a sequence of AS crossings, each
    authorised by one hop field — or by two at segment-crossing points
    (core joints, shortcuts, peering shortcuts), exactly as in SCION
    where the packet carries both segments' hop fields. Routers keep no
    per-path state: everything needed to validate and forward is in
    this structure. *)

type crossing = {
  as_idx : int;
  in_if : Id.iface;  (** 0 when the packet originates in this AS *)
  out_if : Id.iface;  (** 0 when the packet is delivered in this AS *)
  in_link : int;  (** link id entered on; -1 at the source *)
  out_link : int;  (** link id left on; -1 at the destination *)
  proofs : Segment.hop_field list;
      (** hop fields authorising this crossing (two at joints) *)
}

type combination =
  | Up_only
  | Down_only
  | Core_only
  | Up_core
  | Core_down
  | Up_down  (** joined at a shared core AS *)
  | Up_core_down
  | Shortcut  (** crossover at a shared non-core AS (§2.2) *)
  | Peering_shortcut  (** via a peering link present in both segments *)

type t = {
  crossings : crossing array;  (** source AS first *)
  links : int array;  (** traversed link ids in travel order *)
  combination : combination;
}

val src : t -> int
val dst : t -> int

val length : t -> int
(** Number of AS crossings. *)

val contains_link : t -> int -> bool

val ases : t -> int list

val key : t -> string
(** Canonical identity (AS sequence + link sequence) for dedup. *)
