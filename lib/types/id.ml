type isd = int
type asn = int
type ia = { isd : isd; asn : asn }
type iface = int

let ia isd asn = { isd; asn }

let pp_ia fmt { isd; asn } = Format.fprintf fmt "%d-%d" isd asn

let ia_to_string i = Format.asprintf "%a" pp_ia i

let ia_of_string s =
  match String.index_opt s '-' with
  | None -> None
  | Some pos -> (
      let isd_s = String.sub s 0 pos in
      let asn_s = String.sub s (pos + 1) (String.length s - pos - 1) in
      match (int_of_string_opt isd_s, int_of_string_opt asn_s) with
      | Some isd, Some asn when isd >= 0 && asn >= 0 -> Some { isd; asn }
      | _ -> None)
