type model = Native_scion_as | Cpe_sig | Carrier_grade_sig

type capabilities = {
  own_as : bool;
  host_changes_required : bool;
  application_path_control : bool;
  multipath : bool;
  fast_failover : bool;
  premises_equipment : string;
}

let capabilities = function
  | Native_scion_as ->
      {
        own_as = true;
        host_changes_required = true;
        application_path_control = true;
        multipath = true;
        fast_failover = true;
        premises_equipment = "SCION border router + control service; hosts run the SCION stack";
      }
  | Cpe_sig ->
      {
        own_as = true;
        host_changes_required = false;
        application_path_control = false;
        multipath = true;
        fast_failover = true;
        premises_equipment = "CPE bundling SIG, border router and control service";
      }
  | Carrier_grade_sig ->
      {
        own_as = false;
        host_changes_required = false;
        application_path_control = false;
        multipath = false;
        fast_failover = true;
        premises_equipment = "none (provider-operated CGSIG)";
      }

let pp_model fmt = function
  | Native_scion_as -> Format.pp_print_string fmt "native SCION AS (case a)"
  | Cpe_sig -> Format.pp_print_string fmt "CPE-deployed SIG (case b)"
  | Carrier_grade_sig -> Format.pp_print_string fmt "carrier-grade SIG (case c)"
