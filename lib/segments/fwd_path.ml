type crossing = {
  as_idx : int;
  in_if : Id.iface;
  out_if : Id.iface;
  in_link : int;
  out_link : int;
  proofs : Segment.hop_field list;
}

type combination =
  | Up_only
  | Down_only
  | Core_only
  | Up_core
  | Core_down
  | Up_down
  | Up_core_down
  | Shortcut
  | Peering_shortcut

type t = {
  crossings : crossing array;
  links : int array;
  combination : combination;
}

let src t = t.crossings.(0).as_idx

let dst t = t.crossings.(Array.length t.crossings - 1).as_idx

let length t = Array.length t.crossings

let contains_link t l = Array.exists (fun x -> x = l) t.links

let ases t = Array.to_list (Array.map (fun c -> c.as_idx) t.crossings)

let key t =
  String.concat ";"
    (List.map string_of_int (ases t)
    @ ("|" :: List.map string_of_int (Array.to_list t.links)))
