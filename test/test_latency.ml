(* Tests for the latency extension: geo latencies, Dijkstra, the
   latency-aware beaconing variant and the convergence experiment. *)

let check = Alcotest.check

let small_graph () =
  let b = Graph.builder () in
  for i = 0 to 3 do
    ignore (Graph.add_as b ~core:true ~cities:[| i |] (Id.ia 1 (i + 1)))
  done;
  Graph.add_link b ~rel:Graph.Core 0 1;
  Graph.add_link b ~rel:Graph.Core 1 2;
  Graph.add_link b ~rel:Graph.Core 2 3;
  Graph.add_link b ~rel:Graph.Core 0 3;
  Graph.freeze b

(* --- Geo --- *)

(* Two ASes on the distinct cities 7 and 42, joined by one link. *)
let two_city_graph () =
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~core:true ~cities:[| 7 |] (Id.ia 1 1) in
  let a1 = Graph.add_as b ~core:true ~cities:[| 42 |] (Id.ia 1 2) in
  Graph.add_link b ~rel:Graph.Core a0 a1;
  Graph.freeze b

let test_city_position_deterministic () =
  let lat = (Geo.latency_table (two_city_graph ())).(0) in
  Alcotest.(check (float 1e-12)) "stable" lat
    (Geo.latency_table (two_city_graph ())).(0);
  (* Cities lie on a 10 000 km square: at most its diagonal at 200 km/ms,
     plus the 1 ms base and the 0-2 ms spread. *)
  Alcotest.(check bool) "within the plane" true
    (lat <= 3.0 +. (10_000.0 *. sqrt 2.0 /. 200.0))

let test_link_latency_positive_deterministic () =
  let g = small_graph () in
  let t = Geo.latency_table g in
  for l = 0 to Graph.num_links g - 1 do
    Alcotest.(check bool) "positive" true (t.(l) > 0.0);
    Alcotest.(check (float 1e-12)) "deterministic" t.(l)
      (Geo.latency_table g).(l)
  done

let test_shared_city_is_metro () =
  (* Two ASes sharing a city get a metro-range latency; two on distant
     cities pay fibre distance. *)
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~core:true ~cities:[| 1; 2 |] (Id.ia 1 1) in
  let a1 = Graph.add_as b ~core:true ~cities:[| 2; 3 |] (Id.ia 1 2) in
  let a2 = Graph.add_as b ~core:true ~cities:[| 9 |] (Id.ia 1 3) in
  Graph.add_link b ~rel:Graph.Core a0 a1;
  Graph.add_link b ~rel:Graph.Core a0 a2;
  let g = Graph.freeze b in
  let metro = (Geo.latency_table g).(0) in
  Alcotest.(check bool) "metro link under 3 ms" true (metro <= 3.0)

let test_latency_table_and_path () =
  let g = small_graph () in
  let t = Geo.latency_table g in
  check Alcotest.int "one entry per link" (Graph.num_links g) (Array.length t)

(* --- Dijkstra --- *)

let test_dijkstra_simple () =
  let g = small_graph () in
  let weights = [| 1.0; 1.0; 1.0; 10.0 |] in
  let dist dst = Latency_paths.best_latency g ~weights ~src:0 ~dst in
  Alcotest.(check (float 1e-9)) "self" 0.0 (dist 0);
  Alcotest.(check (float 1e-9)) "one hop" 1.0 (dist 1);
  (* 0->3: direct costs 10, around the ring costs 3. *)
  Alcotest.(check (float 1e-9)) "takes the cheap way" 3.0 (dist 3)

let test_dijkstra_unreachable () =
  let b = Graph.builder () in
  ignore (Graph.add_as b ~core:true (Id.ia 1 1));
  ignore (Graph.add_as b ~core:true (Id.ia 1 2));
  let g = Graph.freeze b in
  Alcotest.(check bool) "unreachable is infinite" true
    (Latency_paths.best_latency g ~weights:[||] ~src:0 ~dst:1 = infinity)

let test_dijkstra_negative_rejected () =
  let g = small_graph () in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Latency_paths.dijkstra: negative weight") (fun () ->
      ignore
        (Latency_paths.best_latency g ~weights:[| -1.0; 1.0; 1.0; 1.0 |] ~src:0
           ~dst:3))

let test_stored_best_latency () =
  let weights = [| 2.0; 3.0; 4.0 |] in
  let mk links =
    let p = ref (Pcb.origin_pcb ~origin:0 ~now:0.0 ~lifetime:600.0) in
    List.iter
      (fun l -> p := Pcb.extend !p ~asn:0 ~ingress:0 ~egress:1 ~link:l ~peers:[||])
      links;
    !p
  in
  Alcotest.(check (float 1e-9)) "min over paths" 4.0
    (Latency_paths.stored_best_latency ~weights [ mk [ 0; 1 ]; mk [ 2 ] ]);
  Alcotest.(check bool) "empty set" true
    (Latency_paths.stored_best_latency ~weights [] = infinity)

(* --- Latency-aware beaconing --- *)

let latency_quality_params weights scale =
  {
    Beacon_policy.base = Beacon_policy.default_div_params;
    link_latency_ms = weights;
    latency_scale_ms = scale;
  }

let test_latency_quality () =
  let p = latency_quality_params [||] 100.0 in
  Alcotest.(check (float 1e-9)) "zero latency scores 1" 1.0
    (Beacon_policy.latency_quality p ~total_ms:0.0);
  Alcotest.(check (float 1e-9)) "beyond scale scores 0" 0.0
    (Beacon_policy.latency_quality p ~total_ms:200.0);
  Alcotest.(check (float 1e-9)) "midpoint" 0.5
    (Beacon_policy.latency_quality p ~total_ms:50.0)

let test_latency_aware_beaconing_prefers_fast_paths () =
  (* Square where the direct 0-3 link is very slow: the latency-aware
     algorithm must still deliver the fast way around, and its best
     stored path for (3 -> origin 0) must be the cheap one. *)
  let g = small_graph () in
  let weights = [| 1.0; 1.0; 1.0; 50.0 |] in
  let cfg =
    {
      Beaconing.default_config with
      Beaconing.duration = 600.0 *. 8.0;
      Beaconing.algorithm =
        Beacon_policy.Latency_aware (latency_quality_params weights 100.0);
    }
  in
  let out = Beaconing.run g cfg in
  let now = cfg.Beaconing.duration -. 1.0 in
  let paths = Beacon_store.paths out.Beaconing.stores.(3) ~now ~origin:0 in
  Alcotest.(check bool) "paths found" true (paths <> []);
  let best = Latency_paths.stored_best_latency ~weights paths in
  Alcotest.(check (float 1e-9)) "optimal latency disseminated" 3.0 best

let test_latency_experiment_smoke () =
  let beacon = { Exp_common.beacon_config with Beaconing.duration = 600.0 *. 6.0 } in
  let r = Latency_exp.run (Latency_exp.config ~beacon Exp_common.Tiny) in
  check Alcotest.int "three algorithms" 3 (List.length r.Latency_exp.algos);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (a.Latency_exp.name ^ " stretch >= 1")
        true
        (a.Latency_exp.mean_stretch >= 1.0 -. 1e-9))
    r.Latency_exp.algos;
  (* The latency-aware variant is at least as good as the baseline. *)
  let find n = List.find (fun a -> a.Latency_exp.name = n) r.Latency_exp.algos in
  Alcotest.(check bool) "latency-aware at most baseline stretch" true
    ((find "SCION Latency-aware (60)").Latency_exp.mean_stretch
    <= (find "SCION Baseline (60)").Latency_exp.mean_stretch +. 0.25)

(* --- Convergence experiment --- *)

let test_convergence_experiment () =
  let r = Convergence.run (Convergence.config ~n_failures:2 Exp_common.Tiny) in
  Alcotest.(check bool) "initial convergence happened" true
    (r.Convergence.initial_convergence_s > 0.0);
  Alcotest.(check bool) "initial updates flowed" true (r.Convergence.initial_updates > 0);
  check Alcotest.int "two samples" 2 (List.length r.Convergence.samples);
  List.iter
    (fun s ->
      Alcotest.(check bool) "bgp churn present" true (s.Convergence.bgp_updates > 0);
      check Alcotest.int "scion needs no control messages" 0
        s.Convergence.scion_control_messages;
      Alcotest.(check bool) "scion failover under a second" true
        (s.Convergence.scion_failover_s < 1.0);
      Alcotest.(check bool) "scion failover below bgp reconvergence" true
        (s.Convergence.scion_failover_s < s.Convergence.bgp_convergence_s);
      Alcotest.(check bool) "spare paths ready" true
        (s.Convergence.scion_alternatives_ready > 0))
    r.Convergence.samples

let suite =
  [
    ("city position deterministic", `Quick, test_city_position_deterministic);
    ("link latency positive+deterministic", `Quick, test_link_latency_positive_deterministic);
    ("shared city is metro", `Quick, test_shared_city_is_metro);
    ("latency table and path", `Quick, test_latency_table_and_path);
    ("dijkstra simple", `Quick, test_dijkstra_simple);
    ("dijkstra unreachable", `Quick, test_dijkstra_unreachable);
    ("dijkstra negative rejected", `Quick, test_dijkstra_negative_rejected);
    ("stored best latency", `Quick, test_stored_best_latency);
    ("latency quality", `Quick, test_latency_quality);
    ("latency-aware beaconing", `Quick, test_latency_aware_beaconing_prefers_fast_paths);
    ("latency experiment smoke", `Slow, test_latency_experiment_smoke);
    ("convergence experiment", `Slow, test_convergence_experiment);
  ]
