type rule =
  | Deny_as of int
  | Deny_isd of int
  | Deny_link of int
  | Max_hops of int
  | Deny_origin of int

type t = rule list

let path_touches_isd g (p : Pcb.t) isd =
  (Graph.as_info g p.Pcb.origin).Graph.ia.Id.isd = isd
  || Array.exists
       (fun (h : Pcb.hop) -> (Graph.as_info g h.Pcb.asn).Graph.ia.Id.isd = isd)
       p.Pcb.hops

let rule_allows g (p : Pcb.t) = function
  | Deny_as a -> not (Pcb.contains_as p a)
  | Deny_isd isd -> not (path_touches_isd g p isd)
  | Deny_link l -> not (Array.exists (fun x -> x = l) p.Pcb.links)
  | Max_hops n -> Pcb.num_hops p <= n
  | Deny_origin o -> p.Pcb.origin <> o

let allows g t p = List.for_all (rule_allows g p) t
