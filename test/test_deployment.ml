(* Tests for scion_deployment: ISP link models (Fig. 2), end-domain
   models (Fig. 3), IXP models (Fig. 4) and leased-line economics. *)

let check = Alcotest.check

let small_graph () =
  let b = Graph.builder () in
  for i = 0 to 3 do
    ignore (Graph.add_as b ~core:true (Id.ia 1 (i + 1)))
  done;
  Graph.add_link b ~rel:Graph.Core 0 1;
  Graph.add_link b ~rel:Graph.Core 1 2;
  Graph.add_link b ~rel:Graph.Core 2 3;
  Graph.add_link b ~rel:Graph.Core 3 0;
  Graph.freeze b

(* --- ISP link models --- *)

(* Two ASes joined by one link deployed over [underlay]: the pair stays
   connected exactly when that link survives the conditions. *)
let one_link_survives ?(queueing_discipline = true) underlay ~bgp_failed
    ~ip_flood =
  let b = Graph.builder () in
  let x = Graph.add_as b ~core:true (Id.ia 1 1) in
  let y = Graph.add_as b ~core:true (Id.ia 1 2) in
  Graph.add_link b ~rel:Graph.Core x y;
  Isp_deployment.scion_connected (Graph.freeze b)
    [ { Isp_deployment.link = 0; underlay; queueing_discipline } ]
    ~bgp_failed ~ip_flood

let test_bgp_free () =
  let bgp_free u = one_link_survives u ~bgp_failed:true ~ip_flood:false in
  Alcotest.(check bool) "native" true
    (bgp_free Isp_deployment.Native_cross_connect);
  Alcotest.(check bool) "router-on-a-stick with host routes" true
    (bgp_free (Isp_deployment.Router_on_a_stick { host_routes = true }));
  Alcotest.(check bool) "router-on-a-stick without host routes" false
    (bgp_free (Isp_deployment.Router_on_a_stick { host_routes = false }));
  Alcotest.(check bool) "tunnel" false (bgp_free Isp_deployment.Ip_tunnel)

let test_congestion_safety () =
  let safe u queueing_discipline =
    one_link_survives ~queueing_discipline u ~bgp_failed:false ~ip_flood:true
  in
  Alcotest.(check bool) "native safe without qdisc" true
    (safe Isp_deployment.Native_cross_connect false);
  Alcotest.(check bool) "shared link unsafe without qdisc" false
    (safe (Isp_deployment.Router_on_a_stick { host_routes = true }) false);
  Alcotest.(check bool) "shared link safe with qdisc" true
    (safe (Isp_deployment.Router_on_a_stick { host_routes = true }) true)

let test_native_plan_survives_bgp_failure () =
  let g = small_graph () in
  let plan = Isp_deployment.uniform_plan g Isp_deployment.Native_cross_connect in
  Alcotest.(check bool) "connected under BGP failure" true
    (Isp_deployment.scion_connected g plan ~bgp_failed:true ~ip_flood:true);
  Alcotest.(check (float 1e-9)) "full pair connectivity" 1.0
    (Isp_deployment.connectivity_under_bgp_failure g plan)

let test_tunnel_plan_dies_with_bgp () =
  let g = small_graph () in
  let plan = Isp_deployment.uniform_plan g Isp_deployment.Ip_tunnel in
  Alcotest.(check bool) "fine while BGP works" true
    (Isp_deployment.scion_connected g plan ~bgp_failed:false ~ip_flood:false);
  Alcotest.(check bool) "dead when BGP fails" false
    (Isp_deployment.scion_connected g plan ~bgp_failed:true ~ip_flood:false);
  Alcotest.(check (float 1e-9)) "no pairs survive" 0.0
    (Isp_deployment.connectivity_under_bgp_failure g plan)

let test_mixed_plan_partial () =
  let g = small_graph () in
  (* Three native links, one tunnel: the ring loses one edge under BGP
     failure but stays connected. *)
  let plan tunnels =
    List.mapi
      (fun i (d : Isp_deployment.link_deployment) ->
        if List.mem i tunnels then
          { d with Isp_deployment.underlay = Isp_deployment.Ip_tunnel }
        else d)
      (Isp_deployment.uniform_plan g Isp_deployment.Native_cross_connect)
  in
  Alcotest.(check bool) "ring minus one edge still connected" true
    (Isp_deployment.scion_connected g (plan [ 0 ]) ~bgp_failed:true
       ~ip_flood:false);
  (* Tunnels on the opposite links 0 and 2 leave exactly links 1 and 3:
     two 2-AS islands, so 4 of the 12 ordered pairs stay connected. *)
  Alcotest.(check (float 1e-9)) "surviving links" (4.0 /. 12.0)
    (Isp_deployment.connectivity_under_bgp_failure g (plan [ 0; 2 ]))

let test_redundant_connection () =
  (* Fig. 2c: a native and an encapsulated link in parallel — failing
     BGP must leave the native one. *)
  let b = Graph.builder () in
  let x = Graph.add_as b ~core:true (Id.ia 1 1) in
  let y = Graph.add_as b ~core:true (Id.ia 1 2) in
  Graph.add_link b ~count:2 ~rel:Graph.Core x y;
  let g = Graph.freeze b in
  let plan =
    [
      {
        Isp_deployment.link = 0;
        underlay = Isp_deployment.Native_cross_connect;
        queueing_discipline = false;
      };
      {
        Isp_deployment.link = 1;
        underlay = Isp_deployment.Router_on_a_stick { host_routes = false };
        queueing_discipline = true;
      };
    ]
  in
  Alcotest.(check bool) "the encapsulated leg alone does not survive" false
    (Isp_deployment.scion_connected g (List.tl plan) ~bgp_failed:true
       ~ip_flood:false);
  Alcotest.(check bool) "still connected" true
    (Isp_deployment.scion_connected g plan ~bgp_failed:true ~ip_flood:false)

(* --- End-domain models --- *)

let test_end_domain_capabilities () =
  let native = End_domain.capabilities End_domain.Native_scion_as in
  Alcotest.(check bool) "native: app path control" true
    native.End_domain.application_path_control;
  Alcotest.(check bool) "native: host changes" true native.End_domain.host_changes_required;
  let cpe = End_domain.capabilities End_domain.Cpe_sig in
  Alcotest.(check bool) "cpe: own AS" true cpe.End_domain.own_as;
  Alcotest.(check bool) "cpe: no host changes" false cpe.End_domain.host_changes_required;
  Alcotest.(check bool) "cpe: no app path control" false
    cpe.End_domain.application_path_control;
  let cg = End_domain.capabilities End_domain.Carrier_grade_sig in
  Alcotest.(check bool) "cgsig: no own AS" false cg.End_domain.own_as;
  Alcotest.(check bool) "cgsig: fast failover still provided" true
    cg.End_domain.fast_failover

(* --- IXP models --- *)

let members = [ { Ixp.as_idx = 0; site = 0 }; { Ixp.as_idx = 2; site = 1 } ]

let test_ixp_big_switch () =
  let g = small_graph () in
  let g' = Ixp.big_switch g ~members ~full_mesh:true in
  check Alcotest.int "same AS count" (Graph.n g) (Graph.n g');
  check Alcotest.int "one peering link added" (Graph.num_links g + 1) (Graph.num_links g');
  Alcotest.(check bool) "0 and 2 now peer" true (Graph.links_between g' 0 2 <> [])

let test_ixp_big_switch_same_site_only () =
  let g = small_graph () in
  let g' = Ixp.big_switch g ~members ~full_mesh:false in
  check Alcotest.int "different sites, no link" (Graph.num_links g) (Graph.num_links g')

let test_ixp_exposed_topology () =
  let g = small_graph () in
  let e =
    Ixp.exposed_topology g ~members ~sites:2 ~inter_site_links:[ (0, 1, 2) ] ~isd:9
  in
  check Alcotest.int "two site ASes added" (Graph.n g + 2) (Graph.n e.Ixp.graph);
  (* sites are core ASes of the IXP's ISD *)
  Array.iter
    (fun s ->
      Alcotest.(check bool) "site is core" true (Graph.is_core e.Ixp.graph s);
      check Alcotest.int "site ISD" 9 (Graph.as_info e.Ixp.graph s).Graph.ia.Id.isd)
    e.Ixp.site_as;
  (* redundant inter-site links carried over *)
  check Alcotest.int "2 parallel inter-site links" 2
    (List.length (Graph.links_between e.Ixp.graph e.Ixp.site_as.(0) e.Ixp.site_as.(1)))

let test_ixp_exposed_increases_capacity () =
  (* Two members connected only via a long path get extra capacity
     through the exposed IXP fabric. *)
  let b = Graph.builder () in
  let m1 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let m2 = Graph.add_as b ~core:true (Id.ia 1 2) in
  Graph.add_link b ~rel:Graph.Core m1 m2;
  let g = Graph.freeze b in
  let before = Ixp.member_pair_capacity g m1 m2 in
  let e =
    Ixp.exposed_topology g
      ~members:[ { Ixp.as_idx = m1; site = 0 }; { Ixp.as_idx = m2; site = 1 } ]
      ~sites:2 ~inter_site_links:[ (0, 1, 2) ] ~isd:9
  in
  let after = Ixp.member_pair_capacity e.Ixp.graph m1 m2 in
  Alcotest.(check bool) "capacity increases" true (after > before);
  check Alcotest.int "exactly one more disjoint route" (before + 1) after

let test_ixp_invalid_site () =
  let g = small_graph () in
  Alcotest.check_raises "unknown site"
    (Invalid_argument "Ixp.exposed_topology: member at unknown site") (fun () ->
      ignore
        (Ixp.exposed_topology g
           ~members:[ { Ixp.as_idx = 0; site = 5 } ]
           ~sites:2 ~inter_site_links:[] ~isd:9))

(* --- Leased-line economics --- *)

let scenario = { Leased_line.branches = 10; data_centres = 3; redundancy = 1 }

let test_leased_line_counts () =
  check Alcotest.int "n*k lines" 30 (Leased_line.leased_lines_needed scenario);
  check Alcotest.int "n+k connections" 13 (Leased_line.scion_connections_needed scenario);
  let redundant = { scenario with Leased_line.redundancy = 2 } in
  check Alcotest.int "redundant lines" 60 (Leased_line.leased_lines_needed redundant);
  check Alcotest.int "redundant connections" 26
    (Leased_line.scion_connections_needed redundant)

let costs =
  {
    Leased_line.leased_line_monthly = 1000.0;
    scion_connection_monthly = 800.0;
    scion_equipment_once = 5000.0;
  }

let test_leased_line_saving () =
  Alcotest.(check (float 1e-6)) "monthly saving" (30000.0 -. 10400.0)
    (Leased_line.monthly_saving scenario costs)

let test_leased_line_breakeven () =
  (match Leased_line.breakeven_months scenario costs with
  | Some m -> Alcotest.(check bool) "breaks even within 4 months" true (m < 4.0)
  | None -> Alcotest.fail "should break even");
  (* A 1x1 site pair with expensive SCION never breaks even. *)
  let tiny = { Leased_line.branches = 1; data_centres = 1; redundancy = 1 } in
  let pricey = { costs with Leased_line.scion_connection_monthly = 2000.0 } in
  Alcotest.(check bool) "no breakeven" true
    (Leased_line.breakeven_months tiny pricey = None)

let test_leased_line_invalid () =
  Alcotest.check_raises "invalid" (Invalid_argument "Leased_line: invalid scenario")
    (fun () ->
      ignore
        (Leased_line.leased_lines_needed
           { Leased_line.branches = 1; data_centres = 1; redundancy = 0 }))

let test_leased_line_properties () =
  let props = Leased_line.properties_match () in
  Alcotest.(check bool) "fast failover matched" true
    (List.assoc "high reliability via fast failover" props);
  Alcotest.(check bool) "dedicated capacity not matched" false
    (List.assoc "dedicated physical capacity" props)

let suite =
  [
    ("bgp free", `Quick, test_bgp_free);
    ("congestion safety", `Quick, test_congestion_safety);
    ("native plan survives BGP failure", `Quick, test_native_plan_survives_bgp_failure);
    ("tunnel plan dies with BGP", `Quick, test_tunnel_plan_dies_with_bgp);
    ("mixed plan partial", `Quick, test_mixed_plan_partial);
    ("redundant connection", `Quick, test_redundant_connection);
    ("end-domain capabilities", `Quick, test_end_domain_capabilities);
    ("ixp big switch", `Quick, test_ixp_big_switch);
    ("ixp big switch same-site only", `Quick, test_ixp_big_switch_same_site_only);
    ("ixp exposed topology", `Quick, test_ixp_exposed_topology);
    ("ixp exposed increases capacity", `Quick, test_ixp_exposed_increases_capacity);
    ("ixp invalid site", `Quick, test_ixp_invalid_site);
    ("leased line counts", `Quick, test_leased_line_counts);
    ("leased line saving", `Quick, test_leased_line_saving);
    ("leased line breakeven", `Quick, test_leased_line_breakeven);
    ("leased line invalid", `Quick, test_leased_line_invalid);
    ("leased line properties", `Quick, test_leased_line_properties);
  ]
