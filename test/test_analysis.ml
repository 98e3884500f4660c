(* Tests for scion_analysis: Dinic max-flow and the path-quality
   metrics of §5.3. *)

let check = Alcotest.check

let test_maxflow_single_edge () =
  let f = Maxflow.create ~n:2 in
  Maxflow.add_undirected f 0 1 ~cap:3;
  check Alcotest.int "flow 3" 3 (Maxflow.max_flow f ~src:0 ~dst:1)

let test_maxflow_disconnected () =
  let f = Maxflow.create ~n:3 in
  Maxflow.add_undirected f 0 1 ~cap:1;
  check Alcotest.int "no path" 0 (Maxflow.max_flow f ~src:0 ~dst:2)

let test_maxflow_same_node () =
  let f = Maxflow.create ~n:2 in
  check Alcotest.int "src=dst" 0 (Maxflow.max_flow f ~src:0 ~dst:0)

let test_maxflow_diamond () =
  (* 0 - {1,2} - 3, unit capacities: flow 2. *)
  let f = Maxflow.create ~n:4 in
  Maxflow.add_undirected f 0 1 ~cap:1;
  Maxflow.add_undirected f 0 2 ~cap:1;
  Maxflow.add_undirected f 1 3 ~cap:1;
  Maxflow.add_undirected f 2 3 ~cap:1;
  check Alcotest.int "diamond" 2 (Maxflow.max_flow f ~src:0 ~dst:3)

let test_maxflow_bottleneck () =
  (* 0 - 1 (cap 5) - 2 (cap 2): flow 2. *)
  let f = Maxflow.create ~n:3 in
  Maxflow.add_undirected f 0 1 ~cap:5;
  Maxflow.add_undirected f 1 2 ~cap:2;
  check Alcotest.int "bottleneck" 2 (Maxflow.max_flow f ~src:0 ~dst:2)

let test_maxflow_undirected_parallel () =
  let f = Maxflow.create ~n:2 in
  Maxflow.add_undirected f 0 1 ~cap:1;
  Maxflow.add_undirected f 0 1 ~cap:1;
  check Alcotest.int "two parallel links" 2 (Maxflow.max_flow f ~src:0 ~dst:1)

let test_maxflow_undirected_backflow () =
  (* Classic case where an undirected edge is used "backwards":
     0-1, 0-2, 1-3, 2-3, 1-2. Flow 0->3 is 2. *)
  let f = Maxflow.create ~n:4 in
  List.iter
    (fun (a, b) -> Maxflow.add_undirected f a b ~cap:1)
    [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 2) ];
  check Alcotest.int "flow 2" 2 (Maxflow.max_flow f ~src:0 ~dst:3)

let test_maxflow_invalid () =
  let f = Maxflow.create ~n:2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Maxflow.add_undirected: node out of range")
    (fun () -> Maxflow.add_undirected f 0 5 ~cap:1)

let prop_flow_bounded_by_degree =
  (* On random undirected unit-capacity graphs, flow(s,t) <= min(deg s, deg t). *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 10 in
      let* edges = list_size (int_range 1 25) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      return (n, edges))
  in
  QCheck.Test.make ~name:"flow bounded by endpoint degree" ~count:200 (QCheck.make gen)
    (fun (n, edges) ->
      let f = Maxflow.create ~n in
      let deg = Array.make n 0 in
      List.iter
        (fun (a, b) ->
          if a <> b then begin
            Maxflow.add_undirected f a b ~cap:1;
            deg.(a) <- deg.(a) + 1;
            deg.(b) <- deg.(b) + 1
          end)
        edges;
      let s = 0 and t = n - 1 in
      Maxflow.max_flow f ~src:s ~dst:t <= min deg.(s) deg.(t))

(* --- Path_quality --- *)

let quality_graph () =
  (* 0 ==2== 1 --- 2, 0 --- 2 : optimum 0->1 is 3 (two parallel + via 2). *)
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let a1 = Graph.add_as b ~core:true (Id.ia 1 2) in
  let a2 = Graph.add_as b ~core:true (Id.ia 1 3) in
  Graph.add_link b ~count:2 ~rel:Graph.Core a0 a1;
  Graph.add_link b ~rel:Graph.Core a1 a2;
  Graph.add_link b ~rel:Graph.Core a0 a2;
  Graph.freeze b

let test_optimum () =
  let g = quality_graph () in
  check Alcotest.int "optimum 0->1" 3 (Path_quality.optimum g ~src:0 ~dst:1);
  check Alcotest.int "optimum 0->2" 2 (Path_quality.optimum g ~src:0 ~dst:2)

let test_of_pcbs_subset () =
  let g = quality_graph () in
  (* A single PCB over one of the parallel links gives flow 1. *)
  let direct = List.hd (Graph.links_between g 0 1) in
  let p =
    Pcb.extend
      (Pcb.origin_pcb ~origin:1 ~now:0.0 ~lifetime:600.0)
      ~asn:1 ~ingress:0 ~egress:direct.Graph.b_if ~link:direct.Graph.link_id ~peers:[||]
  in
  check Alcotest.int "single path flow" 1 (Path_quality.of_pcbs g [ p ] ~src:0 ~dst:1);
  check Alcotest.int "empty set" 0 (Path_quality.of_pcbs g [] ~src:0 ~dst:1)

let test_of_as_paths () =
  let g = quality_graph () in
  (* The AS path 0-1 expands to both parallel links. *)
  check Alcotest.int "parallel expansion" 2
    (Path_quality.of_as_paths g [ [ 0; 1 ] ] ~src:0 ~dst:1);
  check Alcotest.int "both AS paths reach optimum" 3
    (Path_quality.of_as_paths g [ [ 0; 1 ]; [ 0; 2; 1 ] ] ~src:0 ~dst:1)

let test_links_of_pcbs_dedup () =
  let g = quality_graph () in
  let direct = List.hd (Graph.links_between g 0 1) in
  let mk () =
    Pcb.extend
      (Pcb.origin_pcb ~origin:1 ~now:0.0 ~lifetime:600.0)
      ~asn:1 ~ingress:0 ~egress:direct.Graph.b_if ~link:direct.Graph.link_id ~peers:[||]
  in
  (* The same link twice still carries one unit: a duplicated link
     would double its capacity. *)
  check Alcotest.int "dedup" 1
    (Path_quality.of_pcbs g [ mk (); mk () ] ~src:1 ~dst:0)

let test_disseminated_never_beats_optimum () =
  (* End-to-end: run beaconing on a small core and check every stored
     path set's flow is bounded by the optimum. *)
  let full = Caida_like.generate { Caida_like.small_params with Caida_like.n = 150 } in
  let g, _ = Caida_like.core_subset full ~k:20 in
  let cfg =
    { Beaconing.default_config with Beaconing.duration = 600.0 *. 6.0 }
  in
  let out = Beaconing.run g cfg in
  let now = cfg.Beaconing.duration -. 1.0 in
  let pairs = Exp_common.sample_pairs g ~count:20 ~seed:3L in
  Array.iter
    (fun (s, d) ->
      let pcbs = Beacon_store.paths out.Beaconing.stores.(s) ~now ~origin:d in
      let flow = Path_quality.of_pcbs g pcbs ~src:s ~dst:d in
      let opt = Path_quality.optimum g ~src:s ~dst:d in
      Alcotest.(check bool) "bounded by optimum" true (flow <= opt);
      if pcbs <> [] then Alcotest.(check bool) "positive when paths exist" true (flow >= 1))
    pairs

(* Brute-force oracle for Path_quality: the size of the smallest subset
   of [links] whose removal leaves no src-dst path over the rest of
   [links], by enumerating every subset and searching each remainder
   breadth-first. *)
let brute_min_cut g links ~src ~dst =
  let links = Array.of_list links in
  let k = Array.length links in
  let connected removed =
    let seen = Array.make (Graph.n g) false in
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iteri
        (fun i l ->
          let lk = Graph.link g l in
          let next =
            if lk.Graph.a = u then lk.Graph.b
            else if lk.Graph.b = u then lk.Graph.a
            else -1
          in
          if removed land (1 lsl i) = 0 && next >= 0 && not seen.(next) then begin
            seen.(next) <- true;
            Queue.add next queue
          end)
        links
    done;
    seen.(dst)
  in
  let size removed =
    let c = ref 0 in
    for i = 0 to k - 1 do
      if removed land (1 lsl i) <> 0 then incr c
    done;
    !c
  in
  let best = ref k in
  for removed = 0 to (1 lsl k) - 1 do
    if size removed < !best && not (connected removed) then best := size removed
  done;
  !best

(* A PCB from [origin] that follows one adjacency per choice. *)
let walk_pcb g ~origin choices =
  let rec go pcb at ingress = function
    | [] -> pcb
    | c :: rest ->
        let adj = Graph.adj g at in
        if Array.length adj = 0 then pcb
        else
          let h = adj.(c mod Array.length adj) in
          go
            (Pcb.extend pcb ~asn:at ~ingress ~egress:h.Graph.local_if
               ~link:h.Graph.via ~peers:[||])
            h.Graph.peer h.Graph.remote_if rest
  in
  go (Pcb.origin_pcb ~origin ~now:0.0 ~lifetime:600.0) origin 0 choices

let prop_path_quality_min_cut =
  (* Random multigraphs of at most 12 links, parallel links included,
     and PCBs from dst as random walks. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 5 in
      let* edges =
        list_size (int_range 1 6)
          (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 2))
      in
      let* walks = list_size (int_range 0 4) (list_size (int_range 1 4) nat) in
      return (n, edges, walks))
  in
  QCheck.Test.make ~name:"path quality equals the brute-force min cut"
    ~count:200 (QCheck.make gen) (fun (n, edges, walks) ->
      let b = Graph.builder () in
      for i = 1 to n do
        ignore (Graph.add_as b ~core:true (Id.ia 1 i))
      done;
      List.iter
        (fun (x, y, count) ->
          if x <> y then Graph.add_link b ~count ~rel:Graph.Core x y)
        edges;
      let g = Graph.freeze b in
      let src = 0 and dst = n - 1 in
      let pcbs = List.map (walk_pcb g ~origin:dst) walks in
      let pcb_links =
        List.sort_uniq compare
          (List.concat_map (fun (p : Pcb.t) -> Array.to_list p.Pcb.links) pcbs)
      in
      Path_quality.optimum g ~src ~dst
      = brute_min_cut g (List.init (Graph.num_links g) Fun.id) ~src ~dst
      && Path_quality.of_pcbs g pcbs ~src ~dst
         = brute_min_cut g pcb_links ~src ~dst)

let suite =
  [
    ("maxflow single edge", `Quick, test_maxflow_single_edge);
    ("maxflow disconnected", `Quick, test_maxflow_disconnected);
    ("maxflow same node", `Quick, test_maxflow_same_node);
    ("maxflow diamond", `Quick, test_maxflow_diamond);
    ("maxflow bottleneck", `Quick, test_maxflow_bottleneck);
    ("maxflow undirected parallel", `Quick, test_maxflow_undirected_parallel);
    ("maxflow undirected backflow", `Quick, test_maxflow_undirected_backflow);
    ("maxflow invalid", `Quick, test_maxflow_invalid);
    QCheck_alcotest.to_alcotest prop_flow_bounded_by_degree;
    ("optimum", `Quick, test_optimum);
    ("of_pcbs subset", `Quick, test_of_pcbs_subset);
    ("of_as_paths", `Quick, test_of_as_paths);
    ("links_of_pcbs dedup", `Quick, test_links_of_pcbs_dedup);
    QCheck_alcotest.to_alcotest prop_path_quality_min_cut;
    ("disseminated never beats optimum", `Quick, test_disseminated_never_beats_optimum);
  ]
