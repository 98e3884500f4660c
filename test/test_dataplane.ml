(* Tests for scion_dataplane: stateless forwarding with hop-field
   validation, SCMP link-failure signalling, endpoint fast failover and
   the SCION-IP gateway. *)

let check = Alcotest.check

(* Same two-ISD network as the segments tests. *)
let network () =
  let b = Graph.builder () in
  let c0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let c1 = Graph.add_as b ~core:true (Id.ia 2 1) in
  let a2 = Graph.add_as b (Id.ia 1 2) in
  let a3 = Graph.add_as b (Id.ia 1 3) in
  let a4 = Graph.add_as b (Id.ia 1 4) in
  let a5 = Graph.add_as b (Id.ia 2 2) in
  Graph.add_link b ~count:2 ~rel:Graph.Core c0 c1;
  Graph.add_link b ~rel:Graph.Provider_customer c0 a2;
  Graph.add_link b ~rel:Graph.Provider_customer c0 a3;
  Graph.add_link b ~rel:Graph.Provider_customer a2 a4;
  Graph.add_link b ~rel:Graph.Peering a2 a3;
  Graph.add_link b ~rel:Graph.Provider_customer c1 a5;
  Graph.freeze b

let beacon_cfg scope =
  {
    Beaconing.default_config with
    Beaconing.scope;
    Beaconing.duration = 600.0 *. 8.0;
    Beaconing.lifetime = 600.0 *. 12.0;
  }

let env =
  lazy
    (let g = network () in
     let core = Beaconing.run g (beacon_cfg Beaconing.Core_beaconing) in
     let intra = Beaconing.run g (beacon_cfg Beaconing.Intra_isd) in
     let cs = Control_service.build ~core ~intra () in
     let net = Forwarding.network g (Control_service.keys cs) in
     (g, cs, net))

let now_of cs = Control_service.now cs

let test_forward_delivers () =
  let g, cs, net = Lazy.force env in
  ignore g;
  match Control_service.resolve cs ~src:4 ~dst:5 with
  | [] -> Alcotest.fail "no path"
  | path :: _ -> (
      let pkt = Forwarding.packet path () in
      match Forwarding.forward net ~now:(now_of cs) pkt with
      | Forwarding.Delivered { trace; _ } ->
          check Alcotest.int "trace starts at src" 4 (List.hd trace);
          check Alcotest.int "trace ends at dst" 5 (List.nth trace (List.length trace - 1))
      | Forwarding.Dropped _ -> Alcotest.fail "packet dropped on a valid path")

let test_forward_all_resolved_paths () =
  let _, cs, net = Lazy.force env in
  List.iter
    (fun (s, d) ->
      List.iter
        (fun path ->
          match Forwarding.forward net ~now:(now_of cs) (Forwarding.packet path ()) with
          | Forwarding.Delivered _ -> ()
          | Forwarding.Dropped { reason = _; at_as; _ } ->
              Alcotest.failf "path %d->%d dropped at AS %d" s d at_as)
        (Control_service.resolve cs ~src:s ~dst:d))
    [ (4, 5); (5, 4); (4, 3); (3, 4); (0, 1); (2, 5) ]

let test_forward_rejects_tampered_mac () =
  let _, cs, net = Lazy.force env in
  match Control_service.resolve cs ~src:4 ~dst:5 with
  | [] -> Alcotest.fail "no path"
  | path :: _ -> (
      (* Corrupt one proof's MAC. *)
      let crossings = Array.copy path.Fwd_path.crossings in
      let mid = Array.length crossings / 2 in
      let c = crossings.(mid) in
      let bad_proofs =
        List.map
          (fun (p : Segment.hop_field) -> { p with Segment.mac = String.make 6 'x' })
          c.Fwd_path.proofs
      in
      crossings.(mid) <- { c with Fwd_path.proofs = bad_proofs };
      let forged = { path with Fwd_path.crossings = crossings } in
      match Forwarding.forward net ~now:(now_of cs) (Forwarding.packet forged ()) with
      | Forwarding.Dropped { reason = Forwarding.Bad_mac _; _ } -> ()
      | _ -> Alcotest.fail "tampered packet must be dropped with Bad_mac")

let test_forward_rejects_expired () =
  let _, cs, net = Lazy.force env in
  match Control_service.resolve cs ~src:4 ~dst:5 with
  | [] -> Alcotest.fail "no path"
  | path :: _ -> (
      match Forwarding.forward net ~now:1e9 (Forwarding.packet path ()) with
      | Forwarding.Dropped { reason = Forwarding.Expired_hop _; _ } -> ()
      | _ -> Alcotest.fail "expired path must be dropped")

let test_forward_link_failure_scmp () =
  let g, cs, _ = Lazy.force env in
  (* Private network so the failure does not leak into other tests. *)
  let net = Forwarding.network g (Control_service.keys cs) in
  match Control_service.resolve cs ~src:4 ~dst:5 with
  | [] -> Alcotest.fail "no path"
  | path :: _ -> (
      let l = path.Fwd_path.links.(Array.length path.Fwd_path.links - 1) in
      Forwarding.fail_link net l;
      match Forwarding.forward net ~now:(now_of cs) (Forwarding.packet path ()) with
      | Forwarding.Dropped { reason = Forwarding.Link_down l'; scmp = Some m; _ } ->
          check Alcotest.int "reports the failed link" l l';
          (match m.Scmp.kind with
          | Scmp.Link_failure { link; if_a; if_b; expiry } ->
              check Alcotest.int "scmp link" l link;
              let lk = Graph.link g l in
              check Alcotest.int "scmp if_a" lk.Graph.a_if if_a;
              check Alcotest.int "scmp if_b" lk.Graph.b_if if_b;
              Alcotest.(check bool) "revocation expires in the future" true
                (expiry > now_of cs)
          | _ -> Alcotest.fail "wrong SCMP kind");
          Alcotest.(check bool) "scmp has a size" true (Scmp.wire_bytes m > 0)
      | _ -> Alcotest.fail "must be dropped with SCMP")

let test_endpoint_failover () =
  let g, cs, _ = Lazy.force env in
  let net = Forwarding.network g (Control_service.keys cs) in
  let ep = Endpoint.create cs net ~src:4 ~dst:5 in
  let n_paths = List.length (Endpoint.available_paths ep) in
  Alcotest.(check bool) "multiple paths available" true (n_paths >= 2);
  (* Fail one of the parallel core links: first send triggers failover
     and still delivers. *)
  let parallel = (List.hd (Graph.links_between g 0 1)).Graph.link_id in
  (* Only fail it if the active path uses it; otherwise fail the other. *)
  let active = Option.get (Endpoint.active_path ep) in
  let used = active.Fwd_path.links in
  let to_fail =
    if Array.exists (fun l -> l = parallel) used then parallel
    else (List.nth (Graph.links_between g 0 1) 1).Graph.link_id
  in
  Forwarding.fail_link net to_fail;
  (match Endpoint.send ep ~now:(now_of cs) () with
  | Forwarding.Delivered _ -> ()
  | Forwarding.Dropped _ -> Alcotest.fail "failover should deliver");
  Alcotest.(check bool) "at most one failover needed" true (Endpoint.failovers ep <= 1);
  (* Paths over the failed link are excluded now. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "failed link excluded" true
        (not (Fwd_path.contains_link p to_fail)))
    (Endpoint.available_paths ep)

let test_endpoint_exhaustion () =
  let g, cs, _ = Lazy.force env in
  let net = Forwarding.network g (Control_service.keys cs) in
  let ep = Endpoint.create cs net ~src:4 ~dst:5 in
  (* The single access link 2-4 is on every path. *)
  let access = (List.hd (Graph.links_between g 2 4)).Graph.link_id in
  Forwarding.fail_link net access;
  (match Endpoint.send ep ~now:(now_of cs) () with
  | Forwarding.Dropped { scmp = Some { Scmp.kind = Scmp.Destination_unreachable; _ }; _ } ->
      ()
  | Forwarding.Dropped _ -> Alcotest.fail "expected destination-unreachable"
  | Forwarding.Delivered _ -> Alcotest.fail "cannot deliver without the access link");
  check (Alcotest.list Alcotest.int) "no paths left" []
    (List.map Fwd_path.length (Endpoint.available_paths ep))

let test_endpoint_failover_retry_counts () =
  (* The failover retry happens inside a single send: exactly one
     failover is counted for one revocation, and the follow-up send on
     the surviving path adds none. *)
  let g, cs, _ = Lazy.force env in
  let net = Forwarding.network g (Control_service.keys cs) in
  let ep = Endpoint.create cs net ~src:4 ~dst:5 in
  let active = Option.get (Endpoint.active_path ep) in
  (* Fail a parallel core link the active path actually uses, so the
     first forward comes back with a Link_failure SCMP. *)
  let on_core l =
    List.exists (fun (lk : Graph.link) -> lk.Graph.link_id = l) (Graph.links_between g 0 1)
  in
  let to_fail =
    active.Fwd_path.links |> Array.to_list |> List.find on_core
  in
  Forwarding.fail_link net to_fail;
  check Alcotest.int "fresh endpoint, no failovers" 0 (Endpoint.failovers ep);
  (match Endpoint.send ep ~now:(now_of cs) () with
  | Forwarding.Delivered _ -> ()
  | Forwarding.Dropped _ -> Alcotest.fail "retry must deliver on the sibling link");
  check Alcotest.int "one revocation, one failover" 1 (Endpoint.failovers ep);
  (match Endpoint.send ep ~now:(now_of cs) () with
  | Forwarding.Delivered _ -> ()
  | Forwarding.Dropped _ -> Alcotest.fail "settled path must keep delivering");
  check Alcotest.int "no further failovers once settled" 1 (Endpoint.failovers ep);
  Alcotest.(check bool) "revoked link stays excluded" true
    (List.for_all
       (fun p -> not (Fwd_path.contains_link p to_fail))
       (Endpoint.available_paths ep))

let test_endpoint_all_paths_revoked () =
  (* Edge case: every path is revoked. The blackout send reports
     destination-unreachable without counting phantom failovers, and
     repeating it does not double-count anything. *)
  let g, cs, _ = Lazy.force env in
  let net = Forwarding.network g (Control_service.keys cs) in
  (* Revocation only: a private control service revokes the access link
     before the endpoint fetches its paths. *)
  let ep =
    let g = network () in
    let core = Beaconing.run g (beacon_cfg Beaconing.Core_beaconing) in
    let intra = Beaconing.run g (beacon_cfg Beaconing.Intra_isd) in
    let cs = Control_service.build ~core ~intra () in
    let access = (List.hd (Graph.links_between g 2 4)).Graph.link_id in
    ignore (Control_service.revoke_link cs ~link:access);
    Endpoint.create cs
      (Forwarding.network g (Control_service.keys cs))
      ~src:4 ~dst:5
  in
  check Alcotest.int "no usable paths" 0 (List.length (Endpoint.available_paths ep));
  (match Endpoint.send ep ~now:(now_of cs) () with
  | Forwarding.Dropped
      { scmp = Some { Scmp.kind = Scmp.Destination_unreachable; _ }; _ } ->
      ()
  | _ -> Alcotest.fail "blackout must report destination-unreachable");
  check Alcotest.int "revocation-only blackout counts zero failovers" 0
    (Endpoint.failovers ep);
  (* A blackout caused by a data-plane failure counts the one failover
     that discovered it — and only once, however often we retry. *)
  let ep2 = Endpoint.create cs net ~src:4 ~dst:5 in
  let access = (List.hd (Graph.links_between g 2 4)).Graph.link_id in
  Forwarding.fail_link net access;
  (match Endpoint.send ep2 ~now:(now_of cs) () with
  | Forwarding.Dropped
      { scmp = Some { Scmp.kind = Scmp.Destination_unreachable; _ }; _ } ->
      ()
  | _ -> Alcotest.fail "expected destination-unreachable");
  let after_first = Endpoint.failovers ep2 in
  check Alcotest.int "discovery counted once" 1 after_first;
  (match Endpoint.send ep2 ~now:(now_of cs) () with
  | Forwarding.Dropped _ -> ()
  | Forwarding.Delivered _ -> Alcotest.fail "cannot deliver without the access link");
  check Alcotest.int "blackout retries do not double-count" after_first
    (Endpoint.failovers ep2)

let test_scmp_wire_bytes_and_pp () =
  (* wire_bytes is kind-dependent. *)
  let failure =
    {
      Scmp.kind = Scmp.Link_failure { link = 42; if_a = 3; if_b = 7; expiry = 1200.0 };
      origin_as = 9;
      at = 600.0;
    }
  in
  let expired = { Scmp.kind = Scmp.Path_expired; origin_as = 9; at = 600.0 } in
  let unreachable =
    { Scmp.kind = Scmp.Destination_unreachable; origin_as = 9; at = 600.0 }
  in
  (* 16-byte header plus the 64-byte offending-packet quote. *)
  let base = 16 + 64 in
  check Alcotest.int "unreachable is header + quote" base
    (Scmp.wire_bytes unreachable);
  check Alcotest.int "path-expired adds the timestamp" (base + 8)
    (Scmp.wire_bytes expired);
  check Alcotest.int "link failure adds link + ifaces + expiry" (base + 16)
    (Scmp.wire_bytes failure);
  Alcotest.(check bool) "link failure is the largest kind" true
    (Scmp.wire_bytes failure > Scmp.wire_bytes expired
    && Scmp.wire_bytes expired > Scmp.wire_bytes unreachable)

let test_sig_gateway_lpm () =
  let _, cs, net = Lazy.force env in
  let sig_gw = Sig_gateway.create cs net ~local_as:4 in
  Sig_gateway.add_mapping sig_gw ~prefix:0x0A000000l ~prefix_len:8 ~as_idx:5;
  Sig_gateway.add_mapping sig_gw ~prefix:0x0A010000l ~prefix_len:16 ~as_idx:3;
  (* The AS a packet is delivered to is the one the ASMap picked. *)
  let delivered_to dst_ip =
    match
      Sig_gateway.send_ip sig_gw ~now:(now_of cs) ~dst_ip ~payload_bytes:100
    with
    | Ok (Forwarding.Delivered { trace; _ }) ->
        Some (List.nth trace (List.length trace - 1))
    | Error Sig_gateway.No_mapping -> None
    | _ -> Alcotest.fail "mapped IP must be delivered"
  in
  Alcotest.(check (option int)) "/16 wins" (Some 3) (delivered_to 0x0A010203l);
  Alcotest.(check (option int)) "/8 fallback" (Some 5) (delivered_to 0x0A020304l);
  Alcotest.(check (option int)) "no match" None (delivered_to 0x0B000001l)

let test_sig_gateway_send () =
  let _, cs, net = Lazy.force env in
  let sig_gw = Sig_gateway.create cs net ~local_as:4 in
  Sig_gateway.add_mapping sig_gw ~prefix:0x0A000000l ~prefix_len:8 ~as_idx:5;
  (match Sig_gateway.send_ip sig_gw ~now:(now_of cs) ~dst_ip:0x0A000001l ~payload_bytes:500 with
  | Ok (Forwarding.Delivered _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "SIG send should deliver");
  (match Sig_gateway.send_ip sig_gw ~now:(now_of cs) ~dst_ip:0x0B000001l ~payload_bytes:500 with
  | Error Sig_gateway.No_mapping -> ()
  | _ -> Alcotest.fail "unmapped IP must fail");
  let st = Sig_gateway.stats sig_gw in
  check Alcotest.int "one encapsulation" 1 st.Sig_gateway.packets_encapsulated;
  check Alcotest.int "one unmapped drop" 1 st.Sig_gateway.no_mapping_drops;
  Alcotest.(check bool) "encap overhead counted" true
    (st.Sig_gateway.encapsulation_overhead_bytes > 0)

let test_sig_header_grows_with_path () =
  (* Encapsulation adds the common (12 B) and address (24 B) headers,
     one info field (8 B) and a 12-byte hop field per AS crossed. *)
  let _, cs, net = Lazy.force env in
  let overhead as_idx =
    let sig_gw = Sig_gateway.create cs net ~local_as:4 in
    Sig_gateway.add_mapping sig_gw ~prefix:0x0A000000l ~prefix_len:8 ~as_idx;
    match
      Sig_gateway.send_ip sig_gw ~now:(now_of cs) ~dst_ip:0x0A000001l
        ~payload_bytes:100
    with
    | Ok (Forwarding.Delivered { hops; _ }) ->
        let bytes =
          (Sig_gateway.stats sig_gw).Sig_gateway.encapsulation_overhead_bytes
        in
        check Alcotest.int "header bytes" (12 + 24 + 8 + (12 * hops)) bytes;
        (hops, bytes)
    | _ -> Alcotest.fail "SIG send should deliver"
  in
  let near_hops, near = overhead 3 and far_hops, far = overhead 5 in
  Alcotest.(check bool) "longer path, bigger header" true
    (far_hops > near_hops && far > near)

let test_sig_invalid_prefix_len () =
  let _, cs, net = Lazy.force env in
  let sig_gw = Sig_gateway.create cs net ~local_as:4 in
  Alcotest.check_raises "bad prefix len"
    (Invalid_argument "Sig_gateway.add_mapping: prefix length outside [0, 32]") (fun () ->
      Sig_gateway.add_mapping sig_gw ~prefix:0l ~prefix_len:33 ~as_idx:1)

let suite =
  [
    ("forward delivers", `Quick, test_forward_delivers);
    ("forward all resolved paths", `Quick, test_forward_all_resolved_paths);
    ("forward rejects tampered MAC", `Quick, test_forward_rejects_tampered_mac);
    ("forward rejects expired", `Quick, test_forward_rejects_expired);
    ("link failure SCMP", `Quick, test_forward_link_failure_scmp);
    ("SCMP wire bytes and pp", `Quick, test_scmp_wire_bytes_and_pp);
    ("endpoint failover", `Quick, test_endpoint_failover);
    ("endpoint exhaustion", `Quick, test_endpoint_exhaustion);
    ("endpoint failover retry counts", `Quick, test_endpoint_failover_retry_counts);
    ("endpoint all paths revoked", `Quick, test_endpoint_all_paths_revoked);
    ("sig gateway LPM", `Quick, test_sig_gateway_lpm);
    ("sig gateway send", `Quick, test_sig_gateway_send);
    ("sig header grows with path", `Quick, test_sig_header_grows_with_path);
    ("sig invalid prefix len", `Quick, test_sig_invalid_prefix_len);
  ]
