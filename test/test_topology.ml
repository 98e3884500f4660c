(* Tests for scion_topology: graph invariants, the CAIDA-like
   generator, pruning, ISD construction, SCIONLab and serialisation. *)

let check = Alcotest.check

(* A small hand-built topology used across the tests:

     0 (core) === 1 (core)        === : 2 parallel core links
       |            |
     2 (transit) -- peer -- 3 (transit)
       |                      |
     4 (leaf)               5 (leaf)                                *)
let hand_graph () =
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~tier:1 ~core:true (Id.ia 1 1) in
  let a1 = Graph.add_as b ~tier:1 ~core:true (Id.ia 1 2) in
  let a2 = Graph.add_as b ~tier:2 (Id.ia 1 3) in
  let a3 = Graph.add_as b ~tier:2 (Id.ia 1 4) in
  let a4 = Graph.add_as b ~tier:3 (Id.ia 1 5) in
  let a5 = Graph.add_as b ~tier:3 (Id.ia 1 6) in
  Graph.add_link b ~count:2 ~rel:Graph.Core a0 a1;
  Graph.add_link b ~rel:Graph.Provider_customer a0 a2;
  Graph.add_link b ~rel:Graph.Provider_customer a1 a3;
  Graph.add_link b ~rel:Graph.Peering a2 a3;
  Graph.add_link b ~rel:Graph.Provider_customer a2 a4;
  Graph.add_link b ~rel:Graph.Provider_customer a3 a5;
  Graph.freeze b

let test_build_counts () =
  let g = hand_graph () in
  check Alcotest.int "n" 6 (Graph.n g);
  check Alcotest.int "links" 7 (Graph.num_links g)

let test_duplicate_ia () =
  let b = Graph.builder () in
  ignore (Graph.add_as b (Id.ia 1 1));
  Alcotest.check_raises "duplicate IA"
    (Invalid_argument "Graph.add_as: duplicate IA 1-1") (fun () ->
      ignore (Graph.add_as b (Id.ia 1 1)))

let test_self_link () =
  let b = Graph.builder () in
  let a = Graph.add_as b (Id.ia 1 1) in
  Alcotest.check_raises "self link" (Invalid_argument "Graph.add_link: self-link")
    (fun () -> Graph.add_link b ~rel:Graph.Core a a)

let test_adjacency_symmetric () =
  let g = hand_graph () in
  for v = 0 to Graph.n g - 1 do
    Array.iter
      (fun (h : Graph.half_link) ->
        let back = Graph.adj g h.Graph.peer in
        Alcotest.(check bool) "reverse half-link exists" true
          (Array.exists
             (fun (h' : Graph.half_link) ->
               h'.Graph.via = h.Graph.via && h'.Graph.peer = v)
             back))
      (Graph.adj g v)
  done

let test_interfaces_unique_per_as () =
  let g = hand_graph () in
  for v = 0 to Graph.n g - 1 do
    let ifaces =
      Array.to_list (Array.map (fun (h : Graph.half_link) -> h.Graph.local_if) (Graph.adj g v))
    in
    check Alcotest.int "unique interface ids"
      (List.length ifaces)
      (List.length (List.sort_uniq compare ifaces))
  done

let test_relationship_directions () =
  let g = hand_graph () in
  let by_dir v dir =
    List.filter_map
      (fun (h : Graph.half_link) ->
        if h.Graph.dir = dir then Some h.Graph.peer else None)
      (Array.to_list (Graph.adj g v))
  in
  check (Alcotest.list Alcotest.int) "customers of 0" [ 2 ] (Graph.customers g 0);
  check (Alcotest.list Alcotest.int) "providers of 4" [ 2 ]
    (by_dir 4 Graph.To_provider);
  check (Alcotest.list Alcotest.int) "peers of 2" [ 3 ] (by_dir 2 Graph.To_peer);
  check (Alcotest.list Alcotest.int) "core ases" [ 0; 1 ] (Graph.core_ases g)

let test_parallel_links () =
  let g = hand_graph () in
  check Alcotest.int "two parallel core links" 2 (List.length (Graph.links_between g 0 1));
  check Alcotest.int "link degree counts both" 3 (Graph.link_degree g 0);
  check Alcotest.int "as degree counts one" 2 (Graph.as_degree g 0)

let test_other_end_iface () =
  let g = hand_graph () in
  let l = List.hd (Graph.links_between g 0 2) in
  Alcotest.(check bool) "iface positive" true (Graph.iface_of l 0 > 0);
  Alcotest.check_raises "not an endpoint"
    (Invalid_argument "Graph.iface_of: AS is not an endpoint") (fun () ->
      ignore (Graph.iface_of l 5))

(* Independent oracle: the number of ASes a breadth-first search from
   AS 0 reaches. *)
let reachable_from_0 g =
  let seen = Array.make (Graph.n g) false in
  let queue = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 queue;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr count;
    List.iter
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          Queue.add u queue
        end)
      (Graph.neighbors g v)
  done;
  !count

let test_connected_components () =
  check Alcotest.int "all connected" 6 (reachable_from_0 (hand_graph ()));
  (* Pruning keeps the largest component: a triangle 0-1-2 and a pair
     3-4 pruned to four ASes drop one pair member (lowest degree), and
     the lone survivor is cut away with its component. *)
  let b = Graph.builder () in
  for i = 1 to 5 do
    ignore (Graph.add_as b (Id.ia 1 i))
  done;
  List.iter
    (fun (x, y) -> Graph.add_link b ~rel:Graph.Peering x y)
    [ (0, 1); (1, 2); (2, 0); (3, 4) ];
  let _, map = Graph.prune_to_top_degree (Graph.freeze b) 4 in
  check (Alcotest.list Alcotest.int) "largest component kept" [ 0; 1; 2 ]
    (List.sort compare (Array.to_list map))

let test_induced_subgraph () =
  let g = hand_graph () in
  let sub, map = Graph.induced_subgraph g [ 0; 1; 2 ] in
  check Alcotest.int "n" 3 (Graph.n sub);
  (* links kept: 2 core + 1 p2c = 3 *)
  check Alcotest.int "links" 3 (Graph.num_links sub);
  check Alcotest.int "mapping" 3 (Array.length map)

let test_serialization_roundtrip () =
  let g = hand_graph () in
  match Graph.of_text (Graph.to_text g) with
  | Error e -> Alcotest.fail e
  | Ok g' ->
      check Alcotest.int "n" (Graph.n g) (Graph.n g');
      check Alcotest.int "links" (Graph.num_links g) (Graph.num_links g');
      for v = 0 to Graph.n g - 1 do
        check Alcotest.bool "core flags" (Graph.is_core g v) (Graph.is_core g' v);
        check (Alcotest.list Alcotest.int) "neighbors" (Graph.neighbors g v)
          (Graph.neighbors g' v)
      done

let test_serialization_rejects_garbage () =
  (match Graph.of_text "bogus line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject");
  match Graph.of_text "link 0 1 core" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "link to unknown AS should be rejected"

(* --- Generator properties --- *)

let generated = lazy (Caida_like.generate { Caida_like.small_params with Caida_like.n = 400 })

let test_generator_connected () =
  let g = Lazy.force generated in
  check Alcotest.int "one component" (Graph.n g) (reachable_from_0 g)

let test_generator_heavy_tail () =
  let g = Lazy.force generated in
  let degs = Array.init (Graph.n g) (fun v -> float_of_int (Graph.as_degree g v)) in
  let med = Stats.median degs in
  let mx = Stats.quantile degs 1.0 in
  Alcotest.(check bool) "max degree >> median" true (mx > 10.0 *. med)

let test_generator_p2c_acyclic () =
  (* Providers always have a smaller index than customers by
     construction, so customer links must point upward in index. *)
  let g = Lazy.force generated in
  for v = 0 to Graph.n g - 1 do
    List.iter
      (fun c -> Alcotest.(check bool) "provider index below customer" true (c > v))
      (Graph.customers g v)
  done

let test_generator_deterministic () =
  let p = { Caida_like.small_params with Caida_like.n = 200 } in
  let g1 = Caida_like.generate p and g2 = Caida_like.generate p in
  check Alcotest.int "same links" (Graph.num_links g1) (Graph.num_links g2);
  check Alcotest.string "same serialisation" (Graph.to_text g1) (Graph.to_text g2)

let test_prune_to_top_degree () =
  let g = Lazy.force generated in
  let core, map = Caida_like.core_subset g ~k:50 in
  Alcotest.(check bool) "at most 50" true (Graph.n core <= 50);
  Alcotest.(check bool) "close to 50" true (Graph.n core >= 40);
  (* every surviving AS is core and every link is a core link *)
  for v = 0 to Graph.n core - 1 do
    Alcotest.(check bool) "core flag" true (Graph.is_core core v)
  done;
  for l = 0 to Graph.num_links core - 1 do
    Alcotest.(check bool) "core rel" true ((Graph.link core l).Graph.rel = Graph.Core)
  done;
  (* survivors have high degree in the original graph *)
  let kept_degrees = Array.map (fun oi -> Graph.as_degree g oi) map in
  let med_kept = Stats.median (Array.map float_of_int kept_degrees) in
  let all = Array.init (Graph.n g) (fun v -> float_of_int (Graph.as_degree g v)) in
  Alcotest.(check bool) "kept ASes are high degree" true (med_kept > Stats.median all);
  check Alcotest.int "connected" (Graph.n core) (reachable_from_0 core)

let test_prune_keeping_every_as () =
  (* k = n removes no AS, but the contract still holds: the largest
     component only, every AS core, every link a core link. *)
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~tier:1 ~core:true (Id.ia 1 1) in
  let a1 = Graph.add_as b ~tier:2 (Id.ia 1 2) in
  let a2 = Graph.add_as b ~tier:1 ~core:true (Id.ia 1 3) in
  let a3 = Graph.add_as b ~tier:1 ~core:true (Id.ia 1 4) in
  let a4 = Graph.add_as b ~tier:3 (Id.ia 1 5) in
  Graph.add_link b ~rel:Graph.Provider_customer a0 a1;
  Graph.add_link b ~rel:Graph.Provider_customer a1 a4;
  Graph.add_link b ~rel:Graph.Core a2 a3;
  let g = Graph.freeze b in
  let core, map = Caida_like.core_subset g ~k:(Graph.n g) in
  Alcotest.(check (list int)) "largest component" [ a0; a1; a4 ]
    (List.sort compare (Array.to_list map));
  for v = 0 to Graph.n core - 1 do
    Alcotest.(check bool) "core flag" true (Graph.is_core core v)
  done;
  for l = 0 to Graph.num_links core - 1 do
    Alcotest.(check bool) "core rel" true ((Graph.link core l).Graph.rel = Graph.Core)
  done

let test_assign_isds () =
  let g = Lazy.force generated in
  let core, _ = Caida_like.core_subset g ~k:30 in
  let core = Caida_like.assign_isds core ~per_isd:10 in
  let isds =
    List.sort_uniq compare
      (List.init (Graph.n core) (fun v -> (Graph.as_info core v).Graph.ia.Id.isd))
  in
  check Alcotest.int "three ISDs" 3 (List.length isds)

let test_build_isd () =
  let g = Lazy.force generated in
  let isd, _ = Caida_like.build_isd g ~n_core:5 in
  let cores = Graph.core_ases isd in
  check Alcotest.int "five cores" 5 (List.length cores);
  Alcotest.(check bool) "has non-core members" true (Graph.n isd > 5);
  (* every member is in the customer cone of some core: reachable from
     a core AS over provider->customer links *)
  let reachable = Array.make (Graph.n isd) false in
  let rec visit v =
    if not reachable.(v) then begin
      reachable.(v) <- true;
      List.iter visit (Graph.customers isd v)
    end
  in
  List.iter visit cores;
  Array.iteri
    (fun v r -> Alcotest.(check bool) (Printf.sprintf "AS %d reachable" v) true r)
    reachable

let test_set_map_core () =
  let g = hand_graph () in
  let g3 =
    Graph.map_as_info g (fun v info -> { info with Graph.core = v mod 2 = 0 })
  in
  check (Alcotest.list Alcotest.int) "mapped cores" [ 0; 2; 4 ] (Graph.core_ases g3);
  Alcotest.(check bool) "original untouched" false (Graph.is_core g 4)

let test_scionlab () =
  let g = Scionlab.generate Scionlab.default_params in
  check Alcotest.int "21 core ASes" 21 (Graph.n g);
  check Alcotest.int "ring + 2 chords + 2 parallel" 25 (Graph.num_links g);
  let mean_degree =
    2.0 *. float_of_int (Graph.num_links g) /. float_of_int (Graph.n g)
  in
  Alcotest.(check bool) "average core degree ~2" true
    (mean_degree >= 2.0 && mean_degree < 2.6);
  List.iter
    (fun v -> Alcotest.(check bool) "all core" true (Graph.is_core g v))
    (List.init (Graph.n g) (fun i -> i))

let test_scionlab_attachments () =
  let g =
    Scionlab.generate { Scionlab.default_params with Scionlab.attachments_per_core = 2 }
  in
  check Alcotest.int "21 + 42 ASes" 63 (Graph.n g);
  Alcotest.(check bool) "leaves are not core" true (not (Graph.is_core g 62))

let prop_roundtrip_random_graphs =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 12 in
      let* edges = list_size (int_range 1 20) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      return (n, edges))
  in
  QCheck.Test.make ~name:"serialisation roundtrips random graphs" ~count:100
    (QCheck.make gen)
    (fun (n, edges) ->
      let b = Graph.builder () in
      for i = 0 to n - 1 do
        ignore (Graph.add_as b (Id.ia 1 (i + 1)))
      done;
      List.iter
        (fun (x, y) -> if x <> y then Graph.add_link b ~rel:Graph.Peering x y)
        edges;
      let g = Graph.freeze b in
      match Graph.of_text (Graph.to_text g) with
      | Error _ -> false
      | Ok g' ->
          Graph.n g' = Graph.n g
          && Graph.num_links g' = Graph.num_links g
          && List.for_all
               (fun v -> Graph.neighbors g v = Graph.neighbors g' v)
               (List.init n (fun i -> i)))

let suite =
  [
    ("build counts", `Quick, test_build_counts);
    ("duplicate ia", `Quick, test_duplicate_ia);
    ("self link", `Quick, test_self_link);
    ("adjacency symmetric", `Quick, test_adjacency_symmetric);
    ("interfaces unique per AS", `Quick, test_interfaces_unique_per_as);
    ("relationship directions", `Quick, test_relationship_directions);
    ("parallel links", `Quick, test_parallel_links);
    ("other end / iface", `Quick, test_other_end_iface);
    ("connected components", `Quick, test_connected_components);
    ("induced subgraph", `Quick, test_induced_subgraph);
    ("serialisation roundtrip", `Quick, test_serialization_roundtrip);
    ("serialisation rejects garbage", `Quick, test_serialization_rejects_garbage);
    ("generator connected", `Quick, test_generator_connected);
    ("generator heavy tail", `Quick, test_generator_heavy_tail);
    ("generator p2c acyclic", `Quick, test_generator_p2c_acyclic);
    ("generator deterministic", `Quick, test_generator_deterministic);
    ("prune to top degree", `Quick, test_prune_to_top_degree);
    ("prune keeping every AS", `Quick, test_prune_keeping_every_as);
    ("assign isds", `Quick, test_assign_isds);
    ("build isd", `Quick, test_build_isd);
    ("set/map core", `Quick, test_set_map_core);
    ("scionlab", `Quick, test_scionlab);
    ("scionlab attachments", `Quick, test_scionlab_attachments);
    QCheck_alcotest.to_alcotest prop_roundtrip_random_graphs;
  ]
