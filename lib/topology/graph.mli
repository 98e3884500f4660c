(** AS-level multigraph with business relationships.

    The inter-domain topology is a multigraph: two ASes may be joined by
    several parallel links (one per shared interconnection location in
    the CAIDA AS-rel-geo dataset the paper uses). Every link endpoint
    carries an AS-local interface identifier, because SCION path
    segments are expressed at the granularity of inter-domain
    interfaces (§2.2). ASes are indexed densely from 0. *)

type relationship =
  | Core  (** link between core ASes (core beaconing runs over these) *)
  | Provider_customer  (** directed: the [a] endpoint is the provider *)
  | Peering  (** settlement-free peering between non-core ASes *)

type rel_from_self =
  | To_provider
  | To_customer
  | To_peer
  | To_core
(** A link's relationship as seen from one of its endpoints. *)

type link = {
  link_id : int;
  a : int;  (** AS index; the provider for {!Provider_customer} links *)
  a_if : Id.iface;
  b : int;
  b_if : Id.iface;
  rel : relationship;
}

type half_link = {
  via : int;  (** link id *)
  peer : int;  (** neighbor AS index *)
  local_if : Id.iface;
  remote_if : Id.iface;
  dir : rel_from_self;
}
(** One endpoint's view of an incident link. *)

type as_info = {
  ia : Id.ia;
  tier : int;  (** 1 = tier-1 transit, larger = lower in the hierarchy *)
  cities : int array;  (** interconnection locations (city ids) *)
  core : bool;  (** member of its ISD's core *)
}

type t

(** {1 Construction} *)

type builder

val builder : unit -> builder

val add_as : builder -> ?tier:int -> ?cities:int array -> ?core:bool -> Id.ia -> int
(** Adds an AS, returning its dense index. *)

val add_link : builder -> ?count:int -> rel:relationship -> int -> int -> unit
(** [add_link b ~count ~rel a c] adds [count] (default 1) parallel links
    between ASes [a] and [c]; interface ids are allocated sequentially
    per AS, starting at 1. For {!Provider_customer}, [a] is the
    provider. Raises [Invalid_argument] on self-links or unknown
    indices. *)

val freeze : builder -> t

(** {1 Accessors} *)

val n : t -> int
(** Number of ASes. *)

val num_links : t -> int

val as_info : t -> int -> as_info

val link : t -> int -> link

val adj : t -> int -> half_link array
(** All incident half-links of an AS (one entry per parallel link). *)

val neighbors : t -> int -> int list
(** Distinct neighbor AS indices. *)

val link_degree : t -> int -> int
(** Number of incident links (counting parallel links). *)

val as_degree : t -> int -> int
(** Number of distinct neighbor ASes. *)

val links_between : t -> int -> int -> link list

val customers : t -> int -> int list
(** Distinct neighbors that are customers of the AS. *)

val core_ases : t -> int list

val is_core : t -> int -> bool

val iface_of : link -> int -> Id.iface
(** The interface id that AS [v] uses on link [l]. *)

(** {1 Derived structure} *)

val induced_subgraph : ?relabel_rel:(relationship -> relationship) -> t -> int list -> t * int array
(** [induced_subgraph g keep] builds the subgraph on [keep] (old
    indices), optionally rewriting relationships (used to turn a pruned
    high-degree subgraph into an all-core graph). Returns the new graph
    and the mapping from new index to old index. Interface ids are
    re-allocated. *)

val prune_to_top_degree : t -> int -> t * int array
(** [prune_to_top_degree g k] incrementally removes the lowest
    AS-degree AS until [k] remain (the paper's §5.1 procedure for
    extracting the 2000-AS core), then takes the largest connected
    component of the result and relabels every surviving link as
    {!Core}. Returns the new graph and new-to-old index mapping. *)

val to_builder : ?rel:(link -> relationship) -> t -> builder
(** A builder holding every AS and link of the graph in index order, so
    further {!add_as}/{!add_link} calls extend it; [rel] (default: the
    link's own) relabels each copied link. Freezing it unchanged gives
    back the same graph. *)

val map_as_info : t -> (int -> as_info -> as_info) -> t
(** [map_as_info g f] replaces AS [v]'s info with [f v info]. Links,
    interface ids and adjacency are [g]'s own; [f] must keep IAs
    distinct. *)

(** {1 Serialisation} *)

val to_text : t -> string
(** Line-oriented text format, parsable by {!of_text}. *)

val of_text : string -> (t, string) result
