type t = { algorithm : Beacon_policy.t; limit : int option }

let baseline limit = { algorithm = Beacon_policy.Baseline; limit }

let diversity limit =
  {
    algorithm = Beacon_policy.Diversity Beacon_policy.default_div_params;
    limit;
  }

let config base v =
  {
    base with
    Beaconing.algorithm = v.algorithm;
    storage_limit = Option.value v.limit ~default:max_int;
  }

(* Display name and phase slug of each algorithm. *)
let labels = function
  | Beacon_policy.Baseline -> ("Baseline", "baseline")
  | Beacon_policy.Diversity _ -> ("Diversity", "diversity")
  | Beacon_policy.Latency_aware _ -> ("Latency-aware", "latency_aware")

let name v =
  Printf.sprintf "%s (%s)"
    (fst (labels v.algorithm))
    (match v.limit with
    | None -> "\xe2\x88\x9e" (* ∞ *)
    | Some limit -> string_of_int limit)

let phase scenario v =
  Printf.sprintf "%s.beaconing.%s.%s" scenario
    (snd (labels v.algorithm))
    (match v.limit with None -> "inf" | Some limit -> string_of_int limit)
