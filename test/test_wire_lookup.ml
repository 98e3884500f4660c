(* Tests for the SCION header codec and the lookup-cache simulation. *)

let check = Alcotest.check

(* --- Scion_header --- *)

let sample_proof ?(peers = [||]) as_idx =
  {
    Segment.as_idx;
    ingress = 2;
    egress = 5;
    link_in = 7;
    link_out = 9;
    peers;
    expiry = 21600.5;
    mac = String.init 6 (fun i -> Char.chr (65 + i + as_idx));
  }

let sample_path () =
  {
    Fwd_path.crossings =
      [|
        {
          Fwd_path.as_idx = 3;
          in_if = 0;
          out_if = 4;
          in_link = -1;
          out_link = 12;
          proofs = [ sample_proof 3 ];
        };
        {
          Fwd_path.as_idx = 8;
          in_if = 6;
          out_if = 2;
          in_link = 12;
          out_link = 13;
          proofs = [ sample_proof 8; sample_proof ~peers:[| 44; 55 |] 9 ];
        };
        {
          Fwd_path.as_idx = 1;
          in_if = 3;
          out_if = 0;
          in_link = 13;
          out_link = -1;
          proofs = [ sample_proof 1 ];
        };
      |];
    links = [| 12; 13 |];
    combination = Fwd_path.Peering_shortcut;
  }

let sample_header ?(local = Id.Ipv4 0x0A000001l) () =
  {
    Scion_header.src = { Id.host_ia = Id.ia 1 42; local };
    dst = { Id.host_ia = Id.ia 7 99999; local = Id.Ipv4 0xC0A80001l };
    payload_len = 1400;
    path = sample_path ();
  }

let headers_equal a b =
  a.Scion_header.payload_len = b.Scion_header.payload_len
  && a.Scion_header.src = b.Scion_header.src
  && a.Scion_header.dst = b.Scion_header.dst
  && a.Scion_header.path.Fwd_path.combination = b.Scion_header.path.Fwd_path.combination
  && a.Scion_header.path.Fwd_path.links = b.Scion_header.path.Fwd_path.links
  && a.Scion_header.path.Fwd_path.crossings = b.Scion_header.path.Fwd_path.crossings

let test_header_roundtrip () =
  let h = sample_header () in
  match Scion_header.decode (Scion_header.encode h) with
  | Ok h' -> Alcotest.(check bool) "roundtrip" true (headers_equal h h')
  | Error e -> Alcotest.fail e

let test_header_roundtrip_ipv6_mac () =
  let h6 = sample_header ~local:(Id.Ipv6 (String.make 16 '\x42')) () in
  (match Scion_header.decode (Scion_header.encode h6) with
  | Ok h' -> Alcotest.(check bool) "ipv6 roundtrip" true (headers_equal h6 h')
  | Error e -> Alcotest.fail e);
  let hm = sample_header ~local:(Id.Mac "\x01\x02\x03\x04\x05\x06") () in
  match Scion_header.decode (Scion_header.encode hm) with
  | Ok h' -> Alcotest.(check bool) "mac roundtrip" true (headers_equal hm h')
  | Error e -> Alcotest.fail e

(* Literal wire bytes of the three host-address kinds, so a layout change
   that still round-trips fails. *)
let test_header_golden_bytes () =
  let bytes local =
    Test_pcb_codec.hex (Scion_header.encode (sample_header ~local ()))
  in
  check Alcotest.string "ipv4"
    ("010578000100000000002a010a000001000700000001869f01c0a80001080300"
   ^ "00000300000004ffffff00000c0100000003000200050000070000090040d518"
   ^ "2000000000444546474849000000080006000200000c00000d02000000080002"
   ^ "00050000070000090040d5182000000000494a4b4c4d4e000000090002000500"
   ^ "00070000090200002c00003740d51820000000004a4b4c4d4e4f000000010003"
   ^ "000000000dffffff0100000001000200050000070000090040d5182000000000"
   ^ "4243444546470200000c00000d")
    (bytes (Id.Ipv4 0x0A000001l));
  check Alcotest.string "ipv6"
    ("010578000100000000002a024242424242424242424242424242424200070000"
   ^ "0001869f01c0a8000108030000000300000004ffffff00000c01000000030002"
   ^ "00050000070000090040d5182000000000444546474849000000080006000200"
   ^ "000c00000d0200000008000200050000070000090040d5182000000000494a4b"
   ^ "4c4d4e00000009000200050000070000090200002c00003740d5182000000000"
   ^ "4a4b4c4d4e4f000000010003000000000dffffff010000000100020005000007"
   ^ "0000090040d51820000000004243444546470200000c00000d")
    (bytes (Id.Ipv6 (String.make 16 '\x42')));
  check Alcotest.string "mac"
    ("010578000100000000002a03010203040506000700000001869f01c0a8000108"
   ^ "030000000300000004ffffff00000c0100000003000200050000070000090040"
   ^ "d5182000000000444546474849000000080006000200000c00000d0200000008"
   ^ "000200050000070000090040d5182000000000494a4b4c4d4e00000009000200"
   ^ "050000070000090200002c00003740d51820000000004a4b4c4d4e4f00000001"
   ^ "0003000000000dffffff0100000001000200050000070000090040d518200000"
   ^ "00004243444546470200000c00000d")
    (bytes (Id.Mac "\x01\x02\x03\x04\x05\x06"))

let test_header_reencode_identical () =
  let h = sample_header () in
  let wire = Scion_header.encode h in
  match Scion_header.decode wire with
  | Ok h' -> check Alcotest.string "byte identical" wire (Scion_header.encode h')
  | Error e -> Alcotest.fail e

let test_header_size () =
  let h = sample_header () in
  check Alcotest.int "encoded_size matches" (String.length (Scion_header.encode h))
    (Scion_header.encoded_size h)

let test_header_rejects_truncation () =
  let wire = Scion_header.encode (sample_header ()) in
  for cut = 0 to String.length wire - 1 do
    match Scion_header.decode (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d accepted" cut
  done

let test_header_rejects_trailing () =
  let wire = Scion_header.encode (sample_header ()) ^ "x" in
  match Scion_header.decode wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let test_header_rejects_bad_version () =
  let wire = Scion_header.encode (sample_header ()) in
  let bad = "\xff" ^ String.sub wire 1 (String.length wire - 1) in
  match Scion_header.decode bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad version accepted"

let test_header_range_checks () =
  let h = sample_header () in
  let h = { h with Scion_header.payload_len = 100_000 } in
  Alcotest.(check bool) "oversized payload rejected" true
    (try
       ignore (Scion_header.encode h);
       false
     with Invalid_argument _ -> true)

let test_header_on_resolved_path () =
  (* End-to-end: encode a path the control service actually produced. *)
  let b = Graph.builder () in
  let c0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let c1 = Graph.add_as b ~core:true (Id.ia 2 1) in
  let a2 = Graph.add_as b (Id.ia 1 2) in
  let a3 = Graph.add_as b (Id.ia 2 2) in
  Graph.add_link b ~rel:Graph.Core c0 c1;
  Graph.add_link b ~rel:Graph.Provider_customer c0 a2;
  Graph.add_link b ~rel:Graph.Provider_customer c1 a3;
  let g = Graph.freeze b in
  let cfg = { Beaconing.default_config with Beaconing.duration = 3600.0 } in
  let core = Beaconing.run g { cfg with Beaconing.scope = Beaconing.Core_beaconing } in
  let intra = Beaconing.run g { cfg with Beaconing.scope = Beaconing.Intra_isd } in
  let cs = Control_service.build ~core ~intra () in
  match Control_service.resolve cs ~src:a2 ~dst:a3 with
  | [] -> Alcotest.fail "no path"
  | path :: _ -> (
      let h =
        {
          Scion_header.src = { Id.host_ia = Id.ia 1 2; local = Id.Ipv4 1l };
          dst = { Id.host_ia = Id.ia 2 2; local = Id.Ipv4 2l };
          payload_len = 512;
          path;
        }
      in
      match Scion_header.decode (Scion_header.encode h) with
      | Error e -> Alcotest.fail e
      | Ok h' ->
          Alcotest.(check bool) "resolved path roundtrips" true (headers_equal h h');
          (* The decoded path still forwards. *)
          let net = Forwarding.network g (Control_service.keys cs) in
          (match
             Forwarding.forward net ~now:(Control_service.now cs)
               (Forwarding.packet h'.Scion_header.path ())
           with
          | Forwarding.Delivered _ -> ()
          | Forwarding.Dropped _ -> Alcotest.fail "decoded path must forward"))

let prop_header_random_paths =
  let gen =
    QCheck.Gen.(
      let* n_cross = int_range 1 6 in
      let* seedling = int_bound 1_000_000 in
      return (n_cross, seedling))
  in
  QCheck.Test.make ~name:"random synthetic paths roundtrip" ~count:100 (QCheck.make gen)
    (fun (n_cross, seedling) ->
      let rng = Rng.create (Int64.of_int seedling) in
      let crossing i =
        {
          Fwd_path.as_idx = Rng.int rng 1000;
          in_if = (if i = 0 then 0 else Rng.int rng 100);
          out_if = (if i = n_cross - 1 then 0 else Rng.int rng 100);
          in_link = (if i = 0 then -1 else Rng.int rng 5000);
          out_link = (if i = n_cross - 1 then -1 else Rng.int rng 5000);
          proofs =
            List.init
              (1 + Rng.int rng 2)
              (fun _ ->
                {
                  Segment.as_idx = Rng.int rng 1000;
                  ingress = Rng.int rng 100;
                  egress = Rng.int rng 100;
                  link_in = Rng.int rng 5000 - 1;
                  link_out = Rng.int rng 5000 - 1;
                  peers = Array.init (Rng.int rng 3) (fun _ -> Rng.int rng 5000);
                  expiry = Rng.float rng 1e6;
                  mac = String.init 6 (fun _ -> Char.chr (Rng.int rng 256));
                });
        }
      in
      let path =
        {
          Fwd_path.crossings = Array.init n_cross crossing;
          links = Array.init (max 0 (n_cross - 1)) (fun _ -> Rng.int rng 5000);
          combination = Fwd_path.Up_core_down;
        }
      in
      let h =
        {
          Scion_header.src = { Id.host_ia = Id.ia 1 1; local = Id.Ipv4 1l };
          dst = { Id.host_ia = Id.ia 2 2; local = Id.Ipv4 2l };
          payload_len = 100;
          path;
        }
      in
      match Scion_header.decode (Scion_header.encode h) with
      | Ok h' -> headers_equal h h'
      | Error _ -> false)

(* --- Lookup_sim --- *)

let quick p = Lookup_sim.run p

let test_lookup_no_cache () =
  let r =
    quick { Lookup_sim.default_params with Lookup_sim.cache = false; requests = 5000 }
  in
  check Alcotest.int "all misses" 5000 r.Lookup_sim.cache_misses;
  check Alcotest.int "two messages per request" 10000 r.Lookup_sim.upstream_messages;
  Alcotest.(check (float 1e-9)) "zero hit rate" 0.0 r.Lookup_sim.hit_rate

let test_lookup_cache_helps () =
  let base = { Lookup_sim.default_params with Lookup_sim.requests = 20000 } in
  let on = quick base in
  let off = quick { base with Lookup_sim.cache = false } in
  Alcotest.(check bool) "cache cuts upstream traffic" true
    (on.Lookup_sim.upstream_bytes < off.Lookup_sim.upstream_bytes /. 1.5);
  Alcotest.(check bool) "decent hit rate at zipf 1.1" true (on.Lookup_sim.hit_rate > 0.5)

let test_lookup_zipf_skew_monotone () =
  let base = { Lookup_sim.default_params with Lookup_sim.requests = 20000 } in
  let h s = (quick { base with Lookup_sim.zipf_s = s }).Lookup_sim.hit_rate in
  Alcotest.(check bool) "more skew, more hits" true (h 1.4 > h 1.1 && h 1.1 > h 0.8)

let test_lookup_expiry_evicts () =
  let r =
    quick
      {
        Lookup_sim.default_params with
        Lookup_sim.requests = 20000;
        segment_lifetime = 10.0 (* much shorter than the run *);
      }
  in
  Alcotest.(check bool) "expired entries evicted" true (r.Lookup_sim.expired_evictions > 0)

let test_lookup_counts_consistent () =
  let r = quick { Lookup_sim.default_params with Lookup_sim.requests = 12345 } in
  check Alcotest.int "hits + misses = requests" 12345
    (r.Lookup_sim.cache_hits + r.Lookup_sim.cache_misses)

let test_lookup_invalid () =
  Alcotest.check_raises "invalid" (Invalid_argument "Lookup_sim.run: invalid parameters")
    (fun () ->
      ignore (quick { Lookup_sim.default_params with Lookup_sim.n_destinations = 0 }))

let suite =
  [
    ("header roundtrip", `Quick, test_header_roundtrip);
    ("header roundtrip ipv6/mac", `Quick, test_header_roundtrip_ipv6_mac);
    ("header golden bytes", `Quick, test_header_golden_bytes);
    ("header re-encode identical", `Quick, test_header_reencode_identical);
    ("header size", `Quick, test_header_size);
    ("header rejects truncation", `Quick, test_header_rejects_truncation);
    ("header rejects trailing", `Quick, test_header_rejects_trailing);
    ("header rejects bad version", `Quick, test_header_rejects_bad_version);
    ("header range checks", `Quick, test_header_range_checks);
    ("header on resolved path", `Quick, test_header_on_resolved_path);
    QCheck_alcotest.to_alcotest prop_header_random_paths;
    ("lookup no cache", `Quick, test_lookup_no_cache);
    ("lookup cache helps", `Quick, test_lookup_cache_helps);
    ("lookup zipf skew monotone", `Quick, test_lookup_zipf_skew_monotone);
    ("lookup expiry evicts", `Quick, test_lookup_expiry_evicts);
    ("lookup counts consistent", `Quick, test_lookup_counts_consistent);
    ("lookup invalid", `Quick, test_lookup_invalid);
  ]
