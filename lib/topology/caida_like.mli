(** Synthetic Internet-like topology generator.

    Stands in for the CAIDA AS-rel-geo dataset (§5.1). The generator
    reproduces the structural properties the evaluation depends on:

    - heavy-tailed AS degrees via preferential attachment of customers
      to transit providers;
    - a densely meshed tier-1 clique;
    - Gao–Rexford relationship labels (provider–customer, peering);
    - geo presence per AS (more locations for higher tiers), from which
      {e parallel inter-AS links} are derived as the number of shared
      interconnection cities — concentrating multi-links in the core,
      as observed in the real dataset.

    See DESIGN.md §2 for the substitution rationale. *)

type params = {
  n : int;  (** total number of ASes *)
  n_tier1 : int;  (** size of the fully meshed tier-1 clique *)
  cities : int;  (** number of interconnection locations *)
  seed : int64;
}

val default_params : params
(** 12 000 ASes, 15 tier-1s, 150 cities, matching the dataset scale of
    §5.1. Fixed for every topology: 18 % of non-tier-1 ASes are
    transit, a customer AS has 1.9 providers on average, a transit AS
    adds a peering link with probability 0.35, and an AS pair has at
    most 8 parallel links. *)

val small_params : params
(** 1 200 ASes for CI-scale runs. *)

val generate : params -> Graph.t
(** Build a connected topology. The tier-1 clique is linked by
    {!Graph.Peering} links among themselves; everyone else attaches to
    providers with {!Graph.Provider_customer} links. *)

val core_subset : Graph.t -> k:int -> Graph.t * int array
(** [core_subset g ~k] extracts the [k] highest-degree ASes by
    incremental pruning (§5.1), relabels every surviving link as
    {!Graph.Core} and marks every AS as core. Also returns the
    new-to-old index map. *)

val assign_isds : Graph.t -> per_isd:int -> Graph.t
(** Partition core ASes into ISDs of [per_isd] members (200 ISDs × 10
    core ASes in the paper's core-beaconing setup), assigning
    [Id.ia] values accordingly. Membership is by index blocks; core
    beaconing mechanics do not depend on the grouping. *)

val build_isd : Graph.t -> n_core:int -> Graph.t * int array
(** [build_isd g ~n_core] models the intra-ISD experiment topology:
    pick the [n_core] largest-customer-cone ASes as the ISD core, take
    the union of their customer cones, and induce the subgraph (the
    paper obtains 11 core + 7017 non-core ASes this way). Core flags
    are set on the selected ASes. *)
