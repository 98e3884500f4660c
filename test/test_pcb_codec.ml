(* Tests for the PCB wire codec. *)

let check = Alcotest.check

let sample_pcb () =
  let p = Pcb.origin_pcb ~origin:7 ~now:1234.5 ~lifetime:21600.0 in
  let p = Pcb.extend p ~asn:7 ~ingress:0 ~egress:3 ~link:100 ~peers:[||] in
  Pcb.extend p ~asn:12 ~ingress:2 ~egress:9 ~link:200 ~peers:[| 55; 66 |]

(* Two hops, each signed by its AS as it extends the beacon. *)
let two_signature_pcb () =
  let ks = Signature.create_keystore () in
  let k7 = Signature.generate ks Signature.Ecdsa_p384 ~id:"as:7" in
  let k12 = Signature.generate ks Signature.Ecdsa_p384 ~id:"as:12" in
  let p = Pcb.origin_pcb ~origin:7 ~now:0.0 ~lifetime:600.0 in
  let p = Pcb.extend p ~asn:7 ~ingress:0 ~egress:3 ~link:100 ~peers:[||] in
  let p = Pcb.with_signature p (Signature.sign k7 (Pcb.signable_bytes p)) in
  let p = Pcb.extend p ~asn:12 ~ingress:2 ~egress:9 ~link:200 ~peers:[||] in
  (ks, Pcb.with_signature p (Signature.sign k12 (Pcb.signable_bytes p)))

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Printf.bprintf b "%02x" (Char.code c)) s;
  Buffer.contents b

let pcbs_equal (a : Pcb.t) (b : Pcb.t) =
  a.Pcb.origin = b.Pcb.origin
  && a.Pcb.timestamp = b.Pcb.timestamp
  && a.Pcb.lifetime = b.Pcb.lifetime
  && a.Pcb.hops = b.Pcb.hops
  && a.Pcb.links = b.Pcb.links
  && a.Pcb.key = b.Pcb.key
  && a.Pcb.signatures = b.Pcb.signatures

let test_roundtrip () =
  let p = sample_pcb () in
  match Pcb_codec.decode (Pcb_codec.encode p) with
  | Ok p' -> Alcotest.(check bool) "roundtrip" true (pcbs_equal p p')
  | Error e -> Alcotest.fail e

let test_roundtrip_empty () =
  let p = Pcb.origin_pcb ~origin:0 ~now:0.0 ~lifetime:600.0 in
  match Pcb_codec.decode (Pcb_codec.encode p) with
  | Ok p' -> Alcotest.(check bool) "zero hops" true (pcbs_equal p p')
  | Error e -> Alcotest.fail e

let test_signatures_survive () =
  let ks, p = two_signature_pcb () in
  match Pcb_codec.decode (Pcb_codec.encode p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      check Alcotest.int "two signatures" 2 (List.length p'.Pcb.signatures);
      (* The outermost signature still verifies on the decoded PCB. *)
      let newest = List.hd p'.Pcb.signatures in
      Alcotest.(check bool) "verifies after decode" true
        (Signature.verify ks ~id:"as:12" ~msg:(Pcb.signable_bytes p') ~signature:newest)

(* Literal wire bytes, so a layout change that still round-trips fails:
   version, origin u32, timestamp and lifetime f64, then per hop asn u32,
   ingress/egress u16, link u24 and u24 peers behind a u8 count, then
   u16-length signatures behind a u8 count. *)
let test_golden_bytes () =
  check Alcotest.string "sample PCB"
    ("010000000740934a000000000040d51800000000000200000007000000030000"
   ^ "64000000000c000200090000c80200003700004200")
    (hex (Pcb_codec.encode (sample_pcb ())));
  check Alcotest.string "two-signature PCB"
    ("010000000700000000000000004082c000000000000200000007000000030000"
   ^ "64000000000c000200090000c8000200601a3824b635dd11fce871c1760fd62e"
   ^ "696efaaa9c6171d14be81ff77d8f91979f1c736cfd20f00ec8d66dd7002e5bbb"
   ^ "562e49369d6b758f7be553e05361b0f6ea7c851c447e7aac80aa2a3efbfb8eb8"
   ^ "ed4b438b8453be47179946db6373d721670060ec935cd00e069a7c6db4c27125"
   ^ "454bba3315576cbfd6ca593bba3edeaf37e596c81072782306ea6682f361461f"
   ^ "5f8b592892cbbe045f63e2696a645106de42eff4a048acbe5e4c14c6e5c6e97c"
   ^ "85aa271cfdd767d474661ddaa88ab61b84cf96")
    (hex (Pcb_codec.encode (snd (two_signature_pcb ()))))

let test_key_recomputed () =
  let p = sample_pcb () in
  match Pcb_codec.decode (Pcb_codec.encode p) with
  | Ok p' ->
      check Alcotest.string "store-compatible key" (Pcb.path_key [| 100; 200 |]) p'.Pcb.key
  | Error e -> Alcotest.fail e

let test_truncation_rejected () =
  let wire = Pcb_codec.encode (sample_pcb ()) in
  for cut = 0 to String.length wire - 1 do
    match Pcb_codec.decode (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d accepted" cut
  done

let test_trailing_rejected () =
  match Pcb_codec.decode (Pcb_codec.encode (sample_pcb ()) ^ "z") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let test_bad_version () =
  let wire = Pcb_codec.encode (sample_pcb ()) in
  match Pcb_codec.decode ("\x63" ^ String.sub wire 1 (String.length wire - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad version accepted"

let test_size () =
  let p = sample_pcb () in
  check Alcotest.int "size" (String.length (Pcb_codec.encode p)) (Pcb_codec.encoded_size p)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"random PCBs roundtrip" ~count:150
    QCheck.(pair (int_bound 100000) (list_of_size (Gen.int_range 0 8) (pair (int_bound 1000) (int_bound 0xFFFF))))
    (fun (origin, hops) ->
      let p = ref (Pcb.origin_pcb ~origin ~now:42.0 ~lifetime:600.0) in
      List.iteri
        (fun i (asn, iface) ->
          p :=
            Pcb.extend !p ~asn ~ingress:(iface land 0xFF) ~egress:(iface lsr 8)
              ~link:(i * 7) ~peers:(Array.init (i mod 3) (fun k -> k + 1)))
        hops;
      match Pcb_codec.decode (Pcb_codec.encode !p) with
      | Ok p' -> pcbs_equal !p p'
      | Error _ -> false)

let test_store_accepts_decoded () =
  (* End-to-end: a decoded PCB behaves like the original in a store. *)
  let s = Beacon_store.create ~limit:5 in
  let p = sample_pcb () in
  ignore (Beacon_store.insert s ~now:1300.0 p);
  match Pcb_codec.decode (Pcb_codec.encode p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      (* Same key: treated as the same path (rejected as non-newer). *)
      Alcotest.(check bool) "same-path dedup" true
        (Beacon_store.insert s ~now:1300.0 p' = Beacon_store.Rejected);
      check Alcotest.int "one entry" 1 (Beacon_store.count s ~origin:7)

let suite =
  [
    ("roundtrip", `Quick, test_roundtrip);
    ("roundtrip empty", `Quick, test_roundtrip_empty);
    ("signatures survive", `Quick, test_signatures_survive);
    ("golden bytes", `Quick, test_golden_bytes);
    ("key recomputed", `Quick, test_key_recomputed);
    ("truncation rejected", `Quick, test_truncation_rejected);
    ("trailing rejected", `Quick, test_trailing_rejected);
    ("bad version", `Quick, test_bad_version);
    ("size", `Quick, test_size);
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    ("store accepts decoded", `Quick, test_store_accepts_decoded);
  ]
