type message = { kind : kind; origin_as : int; at : float }

and kind =
  | Link_failure of { link : int; if_a : Id.iface; if_b : Id.iface; expiry : float }
  | Path_expired
  | Destination_unreachable

(* How long a link-failure revocation stays active: one beaconing
   interval. *)
let default_revocation_ttl = 600.0

let link_failure (lk : Graph.link) ~origin_as ~now =
  {
    kind =
      Link_failure
        {
          link = lk.Graph.link_id;
          if_a = lk.Graph.a_if;
          if_b = lk.Graph.b_if;
          expiry = now +. default_revocation_ttl;
        };
    origin_as;
    at = now;
  }

let header_bytes = 16

let quote_bytes = 64

(* Kind-dependent payload on top of header + quote: a link failure
   names the link (4 B), its interface pair (2 x 2 B) and the
   revocation expiry (8 B); path-expired quotes the expired hop's
   timestamp (8 B); destination-unreachable adds nothing. *)
let payload_bytes = function
  | Link_failure _ -> 4 + 2 + 2 + 8
  | Path_expired -> 8
  | Destination_unreachable -> 0

let wire_bytes m = header_bytes + quote_bytes + payload_bytes m.kind
