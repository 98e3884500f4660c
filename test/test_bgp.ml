(* Tests for scion_bgp: Gao-Rexford route computation, export rules,
   multipath extraction and the overhead model. *)

let check = Alcotest.check

(* Hand topology:

       T1a ~~~~ T1b          (~~ peering)
       /  \       \
      M1   M2      M3        (provider-customer, downward)
      |      \    /
      S1       S2

   indexes: T1a=0 T1b=1 M1=2 M2=3 M3=4 S1=5 S2=6 *)
let policy_graph () =
  let b = Graph.builder () in
  for i = 0 to 6 do
    ignore (Graph.add_as b ~tier:(if i < 2 then 1 else if i < 5 then 2 else 3) (Id.ia 1 (i + 1)))
  done;
  Graph.add_link b ~rel:Graph.Peering 0 1;
  Graph.add_link b ~rel:Graph.Provider_customer 0 2;
  Graph.add_link b ~rel:Graph.Provider_customer 0 3;
  Graph.add_link b ~rel:Graph.Provider_customer 1 4;
  Graph.add_link b ~rel:Graph.Provider_customer 2 5;
  Graph.add_link b ~rel:Graph.Provider_customer 3 6;
  Graph.add_link b ~rel:Graph.Provider_customer 4 6;
  Graph.freeze b

let test_self_route () =
  let g = policy_graph () in
  let t = Bgp_routes.compute g ~dst:5 in
  Alcotest.(check bool) "self" true (t.Bgp_routes.cls.(5) = Bgp_routes.Self);
  check Alcotest.int "self dist" 0 t.Bgp_routes.dist.(5)

let test_customer_route_preferred () =
  let g = policy_graph () in
  (* Destination S2 (6): M2 and M3 learn it as a customer route. *)
  let t = Bgp_routes.compute g ~dst:6 in
  Alcotest.(check bool) "M2 customer route" true
    (t.Bgp_routes.cls.(3) = Bgp_routes.Via_customer);
  Alcotest.(check bool) "T1a customer route (via M2)" true
    (t.Bgp_routes.cls.(0) = Bgp_routes.Via_customer);
  check Alcotest.int "T1a dist 2" 2 t.Bgp_routes.dist.(0)

let test_peer_route () =
  let g = policy_graph () in
  (* Destination M3 (4): T1a has no customer path to 4 but peers with
     T1b whose customer it is. *)
  let t = Bgp_routes.compute g ~dst:4 in
  Alcotest.(check bool) "T1a peer route" true (t.Bgp_routes.cls.(0) = Bgp_routes.Via_peer);
  check Alcotest.int "dist" 2 t.Bgp_routes.dist.(0)

let test_provider_route () =
  let g = policy_graph () in
  (* Destination S1 (5): S2 reaches it only via its providers. *)
  let t = Bgp_routes.compute g ~dst:5 in
  Alcotest.(check bool) "S2 provider route" true
    (t.Bgp_routes.cls.(6) = Bgp_routes.Via_provider)

let test_paths_valley_free () =
  let g = policy_graph () in
  for dst = 0 to 6 do
    let t = Bgp_routes.compute g ~dst in
    for src = 0 to 6 do
      match Bgp_routes.path_to t ~src with
      | None -> if src <> dst then Alcotest.failf "no route %d->%d" src dst
      | Some path ->
          check Alcotest.int "starts at src" src (List.hd path);
          check Alcotest.int "ends at dst" dst (List.nth path (List.length path - 1));
          (* Valley-freeness: once the path goes down (provider->customer)
             or lateral, it never goes up (customer->provider) again. *)
          let rec walk went_down = function
            | u :: (v :: _ as rest) ->
                let up = List.mem u (Graph.customers g v) in
                let down = List.mem v (Graph.customers g u) in
                if up && went_down then Alcotest.failf "valley in path %d->%d" src dst;
                walk (went_down || down || not up) rest
            | _ -> ()
          in
          walk false path
    done
  done

let test_shortest_multipath_ring () =
  (* Ring of 4: both directions to the opposite node are equally long,
     so ECMP multipath installs both. *)
  let b = Graph.builder () in
  for i = 0 to 3 do
    ignore (Graph.add_as b ~core:true (Id.ia 1 (i + 1)))
  done;
  for i = 0 to 3 do
    Graph.add_link b ~rel:Graph.Core i ((i + 1) mod 4)
  done;
  let g = Graph.freeze b in
  let paths = Bgp_routes.shortest_multipath g ~src:0 ~dst:2 in
  check Alcotest.int "two directions" 2 (List.length paths);
  (* An unequal-length alternative is NOT installed: ring of 5. *)
  let b5 = Graph.builder () in
  for i = 0 to 4 do
    ignore (Graph.add_as b5 ~core:true (Id.ia 2 (i + 1)))
  done;
  for i = 0 to 4 do
    Graph.add_link b5 ~rel:Graph.Core i ((i + 1) mod 5)
  done;
  let g5 = Graph.freeze b5 in
  check Alcotest.int "ECMP rejects longer direction" 1
    (List.length (Bgp_routes.shortest_multipath g5 ~src:0 ~dst:2));
  List.iter
    (fun p ->
      check Alcotest.int "loop free" (List.length p)
        (List.length (List.sort_uniq compare p)))
    paths

let test_shortest_multipath_avoids_src () =
  let g = policy_graph () in
  let paths = Bgp_routes.shortest_multipath g ~src:0 ~dst:6 in
  List.iter
    (fun p ->
      let tail = List.tl p in
      Alcotest.(check bool) "src not revisited" true (not (List.mem 0 tail)))
    paths

(* --- Overhead model --- *)

let test_workload_deterministic () =
  let g = policy_graph () in
  let w1 = Bgp_overhead.make_workload g ~seed:1L in
  let w2 = Bgp_overhead.make_workload g ~seed:1L in
  check (Alcotest.array Alcotest.int) "prefixes deterministic"
    w1.Bgp_overhead.prefixes w2.Bgp_overhead.prefixes

let test_workload_positive () =
  let g = policy_graph () in
  let w = Bgp_overhead.make_workload g ~seed:5L in
  Array.iter
    (fun p -> Alcotest.(check bool) "at least one prefix" true (p >= 1))
    w.Bgp_overhead.prefixes;
  Array.iter
    (fun f -> Alcotest.(check bool) "positive flap rate" true (f > 0.0))
    w.Bgp_overhead.flaps_per_prefix

let test_monthly_overhead_shape () =
  let g = policy_graph () in
  let w = Bgp_overhead.make_workload g ~seed:5L in
  let r =
    Bgp_overhead.monthly_overhead g w ~monitors:[ 0; 5 ] Bgp_overhead.default_params
  in
  check Alcotest.int "two monitors" 2 (Array.length r.Bgp_overhead.bgp_bytes);
  Array.iteri
    (fun i b ->
      Alcotest.(check bool) "bgp bytes positive" true (b > 0.0);
      Alcotest.(check bool) "bgpsec bigger than bgp" true
        (r.Bgp_overhead.bgpsec_bytes.(i) > b))
    r.Bgp_overhead.bgp_bytes

let test_prefix_mean_scales () =
  let g = policy_graph () in
  let w1 = Bgp_overhead.make_workload ~prefix_mean:11.0 g ~seed:9L in
  let w2 = Bgp_overhead.make_workload ~prefix_mean:110.0 g ~seed:9L in
  let sum w = Array.fold_left ( + ) 0 w.Bgp_overhead.prefixes in
  Alcotest.(check bool) "10x mean gives more prefixes" true (sum w2 > 3 * sum w1)

let test_top_degree_monitors () =
  let g = policy_graph () in
  let ms = Bgp_overhead.top_degree_monitors g ~count:2 in
  check Alcotest.int "two monitors" 2 (List.length ms);
  (* T1a (0) has degree 3, the maximum. *)
  check Alcotest.int "highest degree first" 0 (List.hd ms)

let suite =
  [
    ("self route", `Quick, test_self_route);
    ("customer route preferred", `Quick, test_customer_route_preferred);
    ("peer route", `Quick, test_peer_route);
    ("provider route", `Quick, test_provider_route);
    ("paths valley free", `Quick, test_paths_valley_free);
    ("shortest multipath ring", `Quick, test_shortest_multipath_ring);
    ("shortest multipath avoids src", `Quick, test_shortest_multipath_avoids_src);
    ("workload deterministic", `Quick, test_workload_deterministic);
    ("workload positive", `Quick, test_workload_positive);
    ("monthly overhead shape", `Quick, test_monthly_overhead_shape);
    ("prefix mean scales", `Quick, test_prefix_mean_scales);
    ("top degree monitors", `Quick, test_top_degree_monitors);
  ]
