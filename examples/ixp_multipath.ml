(* IXP deployment models (§3.5, Figure 4): the same four member ASes
   interconnected (a) over a big-switch IXP — bilateral peering,
   invisible fabric — and (b) over an IXP that exposes its four sites
   as SCION ASes with redundant inter-site links. Exposing the fabric
   gives members more disjoint paths, higher capacity and failover
   across IXP-internal links.

   Run with:  dune exec examples/ixp_multipath.exe *)

let () = print_endline "=== IXP models: big switch vs exposed topology (Fig. 4) ==="

(* Four member ASes (AS1..AS4 in Fig. 4), each attached at one of the
   four IXP sites; no other interconnection. *)
let base =
  let b = Graph.builder () in
  for i = 0 to 3 do
    ignore (Graph.add_as b ~core:true (Id.ia 1 (i + 1)))
  done;
  Graph.freeze b

let members =
  [
    { Ixp.as_idx = 0; site = 0 };
    { Ixp.as_idx = 1; site = 1 };
    { Ixp.as_idx = 2; site = 2 };
    { Ixp.as_idx = 3; site = 3 };
  ]

(* --- Model 1: big switch ------------------------------------------- *)

let big = Ixp.big_switch base ~members ~full_mesh:true

let () =
  Printf.printf "\nbig switch: %d ASes, %d bilateral peering links\n" (Graph.n big)
    (Graph.num_links big);
  Printf.printf "AS1<->AS2 capacity: %d link(s)\n" (Ixp.member_pair_capacity big 0 1)

(* --- Model 2: exposed topology ------------------------------------- *)

(* Fig. 4's sites 1-4 with redundant links (A..F): a ring plus both
   diagonals, the diagonal site1-site4 being doubled. *)
let exposed =
  Ixp.exposed_topology base ~members ~sites:4
    ~inter_site_links:[ (0, 1, 1); (1, 3, 1); (3, 2, 1); (2, 0, 1); (0, 3, 2) ]
    ~isd:9

let () =
  let g = exposed.Ixp.graph in
  Printf.printf "\nexposed topology: %d ASes (4 IXP site ASes), %d links\n" (Graph.n g)
    (Graph.num_links g);
  Printf.printf "AS1<->AS2 capacity through the fabric: %d (bounded by single-site attachment)\n"
    (Ixp.member_pair_capacity g 0 1);
  Printf.printf "site1<->site4 fabric capacity: %d disjoint routes (A, F, F and via the ring)\n"
    (Ixp.member_pair_capacity g exposed.Ixp.site_as.(0) exposed.Ixp.site_as.(3))

(* --- Multipath + failover through the exposed fabric --------------- *)

let () =
  let g = exposed.Ixp.graph in
  (* Beacon over the IXP fabric: sites are core ASes; member links are
     peering, so treat members as core too for this demo by relabeling
     everything core. *)
  let g =
    Graph.map_as_info g (fun _ info -> { info with Graph.core = true })
  in
  let g = Graph.freeze (Graph.to_builder g ~rel:(fun _ -> Graph.Core)) in
  let cfg = { Beaconing.default_config with Beaconing.duration = 3600.0 } in
  let core_out = Beaconing.run g cfg in
  let intra_out = Beaconing.run g { cfg with Beaconing.scope = Beaconing.Intra_isd } in
  let cs = Control_service.build ~core:core_out ~intra:intra_out () in
  let paths = Control_service.resolve cs ~src:0 ~dst:3 in
  Printf.printf "\nAS1 -> AS4 paths through the exposed IXP (%d):\n" (List.length paths);
  List.iteri
    (fun i p ->
      Printf.printf "  %d. %s\n" (i + 1)
        (String.concat " -> "
           (List.map
              (fun v ->
                let ia = (Graph.as_info g v).Graph.ia in
                if ia.Id.isd = 9 then Printf.sprintf "site%d" (ia.Id.asn - 8999)
                else Printf.sprintf "AS%d" (ia.Id.asn))
              (Fwd_path.ases p))))
    paths;
  (* Fail an IXP-internal link; traffic survives via the others. *)
  let net = Forwarding.network g (Control_service.keys cs) in
  let ep = Endpoint.create cs net ~src:0 ~dst:3 in
  let site0 = exposed.Ixp.site_as.(0) and site3 = exposed.Ixp.site_as.(3) in
  let internal = List.hd (Graph.links_between g site0 site3) in
  Forwarding.fail_link net internal.Graph.link_id;
  (match Endpoint.send ep ~now:(Control_service.now cs) () with
  | Forwarding.Delivered { hops; _ } ->
      Printf.printf
        "\nIXP-internal link site1<->site4 failed: delivered anyway over %d ASes \
         (multipath across the fabric)\n"
        hops
  | Forwarding.Dropped _ -> print_endline "dropped?!");
  print_endline
    "\nWith the big-switch model this failure would be invisible to members and\n\
     unroutable-around; exposing the fabric turns IXP redundancy into member-visible\n\
     SCION multipath (the incentive argued in \xc2\xa73.5)."
