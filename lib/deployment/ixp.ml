type member = { as_idx : int; site : int }

let big_switch g ~members ~full_mesh =
  let b = Graph.to_builder g in
  let pairs = ref [] in
  List.iter
    (fun m1 ->
      List.iter
        (fun m2 ->
          if
            m1.as_idx < m2.as_idx
            && (full_mesh || m1.site = m2.site)
            && not (List.mem (m1.as_idx, m2.as_idx) !pairs)
          then begin
            pairs := (m1.as_idx, m2.as_idx) :: !pairs;
            Graph.add_link b ~rel:Graph.Peering m1.as_idx m2.as_idx
          end)
        members)
    members;
  Graph.freeze b

type exposed = { graph : Graph.t; site_as : int array }

let exposed_topology g ~members ~sites ~inter_site_links ~isd =
  if sites < 1 then invalid_arg "Ixp.exposed_topology: need at least one site";
  List.iter
    (fun m ->
      if m.site < 0 || m.site >= sites then
        invalid_arg "Ixp.exposed_topology: member at unknown site")
    members;
  let b = Graph.to_builder g in
  let base_asn = 9000 in
  let site_as =
    Array.init sites (fun s ->
        Graph.add_as b ~tier:1 ~core:true (Id.ia isd (base_asn + s)))
  in
  List.iter
    (fun (sa, sb, count) ->
      if sa < 0 || sa >= sites || sb < 0 || sb >= sites then
        invalid_arg "Ixp.exposed_topology: inter-site link at unknown site";
      Graph.add_link b ~count ~rel:Graph.Core site_as.(sa) site_as.(sb))
    inter_site_links;
  List.iter
    (fun m -> Graph.add_link b ~rel:Graph.Peering m.as_idx site_as.(m.site))
    members;
  { graph = Graph.freeze b; site_as }

let member_pair_capacity g x y = Path_quality.optimum g ~src:x ~dst:y
