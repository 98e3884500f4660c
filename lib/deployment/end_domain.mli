(** End-domain deployment models (§3.4, Figure 3).

    A customer either becomes its own SCION AS (natively or behind a
    CPE that bundles SIG, border router and control service) or
    connects through the provider's carrier-grade SIG without any
    change on the customer premises. The model captures which
    capabilities each option yields. *)

type model =
  | Native_scion_as  (** Case a: own AS, hosts run the SCION stack *)
  | Cpe_sig  (** Case b: own AS, legacy hosts behind a CPE SIG *)
  | Carrier_grade_sig  (** Case c: provider-side CGSIG, no own AS *)

type capabilities = {
  own_as : bool;  (** the customer appears as a SCION AS *)
  host_changes_required : bool;
  application_path_control : bool;  (** apps pick paths themselves *)
  multipath : bool;  (** several paths used concurrently *)
  fast_failover : bool;
  premises_equipment : string;  (** what must be installed on site *)
}

val capabilities : model -> capabilities

val pp_model : Format.formatter -> model -> unit
