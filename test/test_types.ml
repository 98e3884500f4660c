(* Tests for scion_types: identifiers and wire-size formulas. *)

let check = Alcotest.check

let test_ia_pp () =
  check Alcotest.string "pp" "3-42" (Id.ia_to_string (Id.ia 3 42))

let test_ia_parse () =
  (match Id.ia_of_string "7-1234" with
  | Some ia ->
      check Alcotest.int "isd" 7 ia.Id.isd;
      check Alcotest.int "asn" 1234 ia.Id.asn
  | None -> Alcotest.fail "should parse");
  Alcotest.(check bool) "garbage" true (Id.ia_of_string "nope" = None);
  Alcotest.(check bool) "negative" true (Id.ia_of_string "-1-2" = None);
  Alcotest.(check bool) "empty" true (Id.ia_of_string "" = None)

let prop_ia_roundtrip =
  QCheck.Test.make ~name:"ia pp/parse roundtrip" ~count:200
    QCheck.(pair (int_bound 65535) (int_bound 1_000_000))
    (fun (isd, asn) ->
      let ia = Id.ia isd asn in
      Id.ia_of_string (Id.ia_to_string ia) = Some ia)

let test_pcb_bytes () =
  (* One hop: header + hop field + metadata + signature. *)
  check Alcotest.int "one hop" (32 + 16 + 48 + 96) (Wire.pcb_bytes ~hops:1);
  check Alcotest.int "zero hops" 32 (Wire.pcb_bytes ~hops:0)

let test_pcb_bytes_linear () =
  let d1 = Wire.pcb_bytes ~hops:2 - Wire.pcb_bytes ~hops:1 in
  let d2 = Wire.pcb_bytes ~hops:7 - Wire.pcb_bytes ~hops:6 in
  check Alcotest.int "linear in hops" d1 d2

let test_bgp_update_bytes () =
  (* RFC 4271 minimum pieces for one prefix and one hop. *)
  check Alcotest.int "1 hop 1 prefix" (19 + 2 + 2 + 4 + (3 + 2 + 4) + 7 + 5)
    (Wire.bgp_update_bytes ~as_path_len:1 ~prefixes:1);
  Alcotest.(check bool) "longer paths bigger" true
    (Wire.bgp_update_bytes ~as_path_len:5 ~prefixes:1
    > Wire.bgp_update_bytes ~as_path_len:2 ~prefixes:1)

let test_bgpsec_vs_bgp () =
  (* BGPsec updates carry per-hop signatures: much larger at any length. *)
  for len = 1 to 8 do
    Alcotest.(check bool) "bgpsec larger" true
      (Wire.bgpsec_update_bytes ~as_path_len:len
      > 3 * Wire.bgp_update_bytes ~as_path_len:len ~prefixes:1)
  done

let test_bgpsec_per_hop_cost () =
  let d =
    Wire.bgpsec_update_bytes ~as_path_len:4
    - Wire.bgpsec_update_bytes ~as_path_len:3
  in
  (* Secure_Path segment (6) + SKI (20) + sig length (2) + signature (96). *)
  check Alcotest.int "per-hop increment" (6 + 20 + 2 + 96) d

let test_withdraw_bytes () =
  Alcotest.(check bool) "withdraw smaller than announce" true
    (Wire.bgp_withdraw_bytes ~prefixes:1 < Wire.bgp_update_bytes ~as_path_len:1 ~prefixes:1)

let test_registration_bytes () =
  Alcotest.(check bool) "registration carries the segment" true
    (Wire.path_segment_registration_bytes ~hops:3 > Wire.pcb_bytes ~hops:3)

let suite =
  [
    ("ia pp", `Quick, test_ia_pp);
    ("ia parse", `Quick, test_ia_parse);
    QCheck_alcotest.to_alcotest prop_ia_roundtrip;
    ("pcb bytes", `Quick, test_pcb_bytes);
    ("pcb bytes linear", `Quick, test_pcb_bytes_linear);
    ("bgp update bytes", `Quick, test_bgp_update_bytes);
    ("bgpsec vs bgp", `Quick, test_bgpsec_vs_bgp);
    ("bgpsec per-hop cost", `Quick, test_bgpsec_per_hop_cost);
    ("withdraw bytes", `Quick, test_withdraw_bytes);
    ("registration bytes", `Quick, test_registration_bytes);
  ]
