(* Tests for scion_traffic: capacity model, path-selection strategy
   invariants, demand purity, the checkpointable flow simulation
   (chunked advance vs direct, fault composition, recovery byte
   round-trip) and the swarm multipath comparison. *)

let check = Alcotest.check

(* --- fixtures ---------------------------------------------------------- *)

(* A forwarding path is identified by its link sequence only, which is
   all the traffic engine consumes. *)
let fpath links =
  {
    Fwd_path.crossings = [||];
    links = Array.of_list links;
    combination = Fwd_path.Core_only;
  }

(* Same two-ISD network as the dataplane tests: 2 core ASes joined by
   two parallel core links, two customer chains below. *)
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
     (g, cs))

let resolve_paths cs demand =
  Array.map
    (fun (src, dst) ->
      let seen = Hashtbl.create 8 in
      Control_service.resolve cs ~src ~dst
      |> List.filter (fun p ->
             let k = Fwd_path.key p in
             if Hashtbl.mem seen k then false
             else begin
               Hashtbl.add seen k ();
               true
             end)
      |> Array.of_list)
    (Demand.pairs demand)

(* --- Link_load --------------------------------------------------------- *)

let test_link_load_capacities () =
  let g = network () in
  let ll = Link_load.create g in
  for l = 0 to Graph.num_links g - 1 do
    Alcotest.(check bool) "positive capacity" true (Link_load.capacity_mbps ll l > 0.0)
  done;
  (* Core trunks are fatter than customer access links. *)
  let core_cap = Link_load.capacity_mbps ll 0 in
  let stub_cap = Link_load.capacity_mbps ll 4 in
  Alcotest.(check bool) "core > stub" true (core_cap > stub_cap);
  let half = Link_load.create ~capacity_scale:0.5 g in
  Alcotest.(check (float 1e-9)) "scale multiplies"
    (0.5 *. core_cap)
    (Link_load.capacity_mbps half 0);
  Alcotest.check_raises "scale must be positive"
    (Invalid_argument "Link_load.create: capacity_scale <= 0")
    (fun () -> ignore (Link_load.create ~capacity_scale:0.0 g))

(* [Link_load.fair_share_into] read back as a value. *)
let fair_share load links =
  let dst = [| Float.nan |] in
  Link_load.fair_share_into load links dst 0;
  dst.(0)

let test_link_load_fair_share () =
  let g = network () in
  let ll = Link_load.create g in
  let path = [| 0; 2 |] in
  let thin =
    Float.min (Link_load.capacity_mbps ll 0) (Link_load.capacity_mbps ll 2)
  in
  Link_load.add_path ll path;
  check (Alcotest.float 1e-9) "one subflow gets the thinnest capacity" thin
    (fair_share ll path);
  Link_load.add_path ll path;
  check Alcotest.int "both subflows counted" 2 (Link_load.count ll 0);
  check (Alcotest.float 1e-9) "fair share splits the bottleneck" (thin /. 2.0)
    (fair_share ll path);
  Link_load.add_path ll path;
  check (Alcotest.float 1e-9) "a third subflow gets a third" (thin /. 3.0)
    (fair_share ll path);
  Link_load.remove_path ll path;
  Link_load.remove_path ll path;
  Link_load.remove_path ll path;
  check Alcotest.int "released" 0 (Link_load.count ll 0);
  Alcotest.check_raises "underflow detected"
    (Invalid_argument "Link_load.remove_path: count underflow")
    (fun () -> Link_load.remove_path ll path);
  check (Alcotest.float 1e-9) "empty path share" infinity
    (fair_share ll [||])

(* The rates [Link_load] and [Strategy] compute from the load's
   counts, read in place, against a from-scratch recomputation from
   counts the test keeps itself. Random add/remove sequences bring
   counts back to 0 on the way; after every step
   [Link_load.fair_share_into] and [Strategy.estimate] over a few probe
   paths must equal [capacity / count] (and
   [capacity / (count + bonus + 1)] for an estimate) bit for bit. A
   remove on an empty load still raises. *)
let prop_link_load_rates =
  let g = network () in
  let n_links = Graph.num_links g in
  let gen =
    QCheck.Gen.(
      let path = list_size (int_range 1 4) (int_bound (n_links - 1)) in
      triple
        (oneofl [ 1.0; 0.37; 0.02 ])
        (list_size (int_bound 40) (pair bool path))
        (list_size (int_range 1 4) path))
  in
  let print (scale, ops, probes) =
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "scale=%g ops=[%s] probes=[%s]" scale
      (String.concat " "
         (List.map (fun (add, p) -> (if add then "+" else "-") ^ ints p) ops))
      (String.concat " " (List.map ints probes))
  in
  QCheck.Test.make ~name:"link load rates follow counts" ~count:300
    (QCheck.make ~print gen)
    (fun (capacity_scale, ops, probes) ->
      let load = Link_load.create ~capacity_scale g in
      let cap l = Link_load.capacity_mbps load l in
      let counts = Array.make n_links 0 in
      let live = ref [] in
      let bits = Int64.bits_of_float in
      let share links =
        Array.fold_left
          (fun acc l ->
            if counts.(l) = 0 then acc
            else Float.min acc (cap l /. float_of_int counts.(l)))
          infinity links
      in
      let estimate offered sel =
        let bonus = Array.make n_links 0 in
        Array.fold_left
          (fun total i ->
            let links = offered.(i).Fwd_path.links in
            let est =
              Array.fold_left
                (fun acc l ->
                  Float.min acc
                    (cap l /. float_of_int (counts.(l) + bonus.(l) + 1)))
                infinity links
            in
            Array.iter (fun l -> bonus.(l) <- bonus.(l) + 1) links;
            total +. est)
          0.0 sel
      in
      let offered = Array.of_list (List.map fpath probes) in
      let ctx = Strategy.ctx ~latency_ms:(Array.make n_links 1.0) load in
      let offer = Strategy.offer ctx offered in
      let sels =
        [
          Array.init (Array.length offered) Fun.id;
          [| 0 |];
          [| Array.length offered - 1; 0 |];
        ]
      in
      let consistent () =
        Array.for_all
          (fun (p : Fwd_path.t) ->
            bits (fair_share load p.links) = bits (share p.links))
          offered
        && List.for_all
             (fun sel ->
               bits (Strategy.estimate ctx offer sel)
               = bits (estimate offered sel))
             sels
      in
      let step (add, p) =
        let links = Array.of_list p in
        if add then begin
          Link_load.add_path load links;
          Array.iter (fun l -> counts.(l) <- counts.(l) + 1) links;
          live := links :: !live
        end
        else
          match !live with
          | links :: rest ->
              Link_load.remove_path load links;
              Array.iter (fun l -> counts.(l) <- counts.(l) - 1) links;
              live := rest
          | [] -> (
              match Link_load.remove_path load links with
              | () -> QCheck.Test.fail_report "underflow not detected"
              | exception Invalid_argument _ -> ())
      in
      consistent ()
      && List.for_all
           (fun op ->
             step op;
             consistent ())
           ops)

(* --- Strategy ---------------------------------------------------------- *)

(* Two-link world: path 0 rides link 0 (fast), path 1 rides link 1
   (slow), path 2 rides both. *)
let tiny_world () =
  let g = network () in
  let load = Link_load.create g in
  let latency_ms = Array.init (Graph.num_links g) (fun l -> 5.0 +. float_of_int l) in
  (Strategy.ctx ~latency_ms load, load)

let offered_fixture = [| fpath [ 0 ]; fpath [ 1 ]; fpath [ 0; 1 ] |]

(* A fresh context and the fixture's offer on it. *)
let tiny_offer () =
  let ctx, _ = tiny_world () in
  (ctx, Strategy.offer ctx offered_fixture)

let all_usable (_ : Fwd_path.t) = true

let test_strategy_contract () =
  let ctx, fixture = tiny_offer () in
  let empty = Strategy.offer ctx [||] in
  List.iter
    (fun s ->
      check Alcotest.int "empty offer, empty selection" 0
        (Array.length
           (Strategy.select s ctx ~usable:all_usable ~width:2 empty));
      Alcotest.check_raises "width must be positive"
        (Invalid_argument "Strategy.select: width < 1") (fun () ->
          ignore (Strategy.select s ctx ~usable:all_usable ~width:0 fixture));
      List.iter
        (fun width ->
          let sel = Strategy.select s ctx ~usable:all_usable ~width fixture in
          Alcotest.(check bool) "at least one path" true (Array.length sel >= 1);
          Alcotest.(check bool) "at most width" true (Array.length sel <= width);
          Array.iter
            (fun i ->
              Alcotest.(check bool) "index into offered" true
                (i >= 0 && i < Array.length offered_fixture))
            sel;
          check Alcotest.int "distinct indices"
            (Array.length sel)
            (List.length (List.sort_uniq compare (Array.to_list sel)));
          Alcotest.(check bool) "deterministic" true
            (sel = Strategy.select s ctx ~usable:all_usable ~width fixture))
        [ 1; 2; 3; 5 ])
    Strategy.all

(* A selection chooses among the usable paths only, as if the others
   had not been offered, and has [min width live] indices. *)
let test_strategy_usable () =
  let ctx, fixture = tiny_offer () in
  let not_path_0 p = p != offered_fixture.(0) in
  List.iter
    (fun s ->
      let select ~usable ~width =
        Strategy.select s ctx ~usable ~width fixture
      in
      check
        Alcotest.(array int)
        "nothing usable, empty selection" [||]
        (select ~usable:(fun _ -> false) ~width:2);
      check
        Alcotest.(array int)
        "one usable path, chosen alone" [| 1 |]
        (select ~usable:(fun p -> p == offered_fixture.(1)) ~width:3);
      List.iter
        (fun width ->
          let sel = select ~usable:not_path_0 ~width in
          check Alcotest.int "min width live indices" (min width 2)
            (Array.length sel);
          Alcotest.(check bool) "only usable paths" true
            (Array.for_all (fun i -> i <> 0) sel))
        [ 1; 2; 3 ])
    Strategy.all;
  (* Path 0 is every strategy's first pick on the idle fixture; without
     it, latency-greedy takes the next fastest. *)
  check
    Alcotest.(array int)
    "masked latency-greedy" [| 1; 2 |]
    (Strategy.select Strategy.Latency_greedy ctx ~usable:not_path_0 ~width:2
       fixture)

let test_strategy_latency_greedy () =
  let ctx, fixture = tiny_offer () in
  let sel =
    Strategy.select Strategy.Latency_greedy ctx ~usable:all_usable ~width:1
      fixture
  in
  check Alcotest.int "fastest path first" 0 sel.(0);
  let sel2 =
    Strategy.select Strategy.Latency_greedy ctx ~usable:all_usable ~width:2
      fixture
  in
  Alcotest.(check bool) "then next fastest" true (sel2 = [| 0; 1 |])

let test_strategy_diversity () =
  let ctx, fixture = tiny_offer () in
  let sel =
    Strategy.select Strategy.Diversity_max ctx ~usable:all_usable ~width:2
      fixture
  in
  (* Paths 0 and 1 are link-disjoint; path 2 overlaps both. *)
  Alcotest.(check bool) "disjoint pair chosen" true
    (List.sort compare (Array.to_list sel) = [ 0; 1 ])

let test_strategy_load_adaptive_shifts () =
  let ctx, load = tiny_world () in
  let fixture = Strategy.offer ctx offered_fixture in
  let sel =
    Strategy.select Strategy.Load_adaptive ctx ~usable:all_usable ~width:1
      fixture
  in
  check Alcotest.int "idle: fattest estimate wins" 0 sel.(0);
  (* Saturate link 0: the adaptive strategy must shift to link 1 while
     the latency-greedy one keeps herding onto the saturated link. *)
  for _ = 1 to 50 do
    Link_load.add_path load [| 0 |]
  done;
  let sel' =
    Strategy.select Strategy.Load_adaptive ctx ~usable:all_usable ~width:1
      fixture
  in
  check Alcotest.int "saturated: shifts to the idle link" 1 sel'.(0);
  let greedy =
    Strategy.select Strategy.Latency_greedy ctx ~usable:all_usable ~width:1
      fixture
  in
  check Alcotest.int "greedy ignores load" 0 greedy.(0)

let test_strategy_names () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.name s) with
      | Ok s' -> Alcotest.(check bool) "name round-trips" true (s = s')
      | Error e -> Alcotest.fail e)
    Strategy.all;
  (match Strategy.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus strategy accepted")

(* Oracle for the allocation-free selectors: on random worlds they pick
   exactly what the eager reference picks, and [Strategy.estimate]
   returns the reference's float bit for bit. Latencies of 1 or 2 ms
   and three capacity classes force latency and estimate ties; each
   world runs every selector several times on one context, so scratch
   left over from one call would show in the next. Each offered set
   also gets a usability mask (all usable, none usable or random): the
   masked selection must equal the reference's selection on the usable
   subset, and a selection over the whole set that happens to pick only
   usable paths must equal the masked one (the shortcut
   [Traffic_sim]'s admission takes). *)
let prop_selectors_equal_reference =
  let max_paths = 16 in
  let gen =
    QCheck.Gen.(
      let* n_links = int_range 1 12 in
      let* rels = array_repeat n_links (int_bound 2) in
      let* lat = array_repeat n_links (int_range 1 2) in
      let* counts = array_repeat n_links (int_bound 3) in
      let* paths =
        list_size (int_bound max_paths)
          (list_size (int_range 1 5) (int_bound (n_links - 1)))
      in
      let* widths = list_repeat 4 (int_range 1 4) in
      let* mask =
        let* kind = int_bound 3 in
        let* bits = array_repeat max_paths bool in
        return
          (match kind with
          | 0 -> Array.make max_paths true
          | 1 -> Array.make max_paths false
          | _ -> bits)
      in
      return (rels, lat, counts, paths, widths, mask))
  in
  let print (rels, lat, counts, paths, widths, mask) =
    let ints a = String.concat "," (List.map string_of_int a) in
    Printf.sprintf "rels=%s lat=%s counts=%s paths=[%s] widths=%s mask=%s"
      (ints (Array.to_list rels)) (ints (Array.to_list lat))
      (ints (Array.to_list counts))
      (String.concat " " (List.map ints paths))
      (ints widths)
      (String.concat ""
         (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))
  in
  QCheck.Test.make ~name:"selectors equal the eager reference" ~count:300
    (QCheck.make ~print gen)
    (fun (rels, lat, counts, paths, widths, mask) ->
      let b = Graph.builder () in
      let x = Graph.add_as b ~tier:1 (Id.ia 1 1) in
      let y = Graph.add_as b (Id.ia 1 2) in
      Array.iter
        (fun r ->
          let rel =
            match r with
            | 0 -> Graph.Core
            | 1 -> Graph.Peering
            | _ -> Graph.Provider_customer
          in
          Graph.add_link b ~rel x y)
        rels;
      let g = Graph.freeze b in
      let load = Link_load.create g in
      Array.iteri
        (fun l k ->
          for _ = 1 to k do
            Link_load.add_path load [| l |]
          done)
        counts;
      let latency_ms = Array.map float_of_int lat in
      let offered = Array.of_list (List.map fpath paths) in
      (* Offered paths are told apart by identity: two of them may ride
         the same links and still differ in usability. *)
      let usable p =
        match Array.find_index (fun q -> q == p) offered with
        | Some i -> mask.(i)
        | None -> Alcotest.fail "usable called on a path not offered"
      in
      let ctx = Strategy.ctx ~latency_ms load in
      let offer = Strategy.offer ctx offered in
      let reference = { Reference_select.latency_ms; load } in
      let same_estimate sel =
        Int64.equal
          (Int64.bits_of_float (Strategy.estimate ctx offer sel))
          (Int64.bits_of_float
             (Reference_select.selection_estimate load offered sel))
      in
      List.for_all
        (fun width ->
          List.for_all
            (fun s ->
              let sel = Strategy.select s ctx ~usable:all_usable ~width offer in
              let masked = Strategy.select s ctx ~usable ~width offer in
              sel = Reference_select.select s reference ~width offered
              && masked
                 = Reference_select.select_usable s reference ~usable ~width
                     offered
              && ((not (Array.for_all (fun i -> mask.(i)) sel)) || masked = sel)
              && same_estimate sel
              && same_estimate (Array.of_list (List.rev (Array.to_list sel))))
            Strategy.all)
        widths)

(* --- Demand ------------------------------------------------------------ *)

let small_demand g =
  Demand.create g
    {
      Demand.default_params with
      Demand.n_pairs = 8;
      flows = 400;
      horizon_s = 120.0;
      seed = 42L;
    }

let test_demand_pure_and_sorted () =
  let g, _ = Lazy.force env in
  let d = small_demand g in
  let d' = small_demand g in
  check Alcotest.int "pair count" 8 (Array.length (Demand.pairs d));
  Alcotest.(check bool) "pair sampling deterministic" true
    (Demand.pairs d = Demand.pairs d');
  Array.iter
    (fun (s, t) ->
      Alcotest.(check bool) "pair within graph" true
        (s >= 0 && s < Graph.n g && t >= 0 && t < Graph.n g && s <> t))
    (Demand.pairs d);
  check Alcotest.int "distinct pairs" 8
    (List.length (List.sort_uniq compare (Array.to_list (Demand.pairs d))));
  (* The flows are a pure function of the seed. *)
  Alcotest.(check bool) "same seed, same flows" true
    (Demand.sorted_flows d = Demand.sorted_flows d');
  let sorted = Demand.sorted_flows d in
  check Alcotest.int "all flows sorted" 400 (Array.length sorted);
  Array.iteri
    (fun i (f : Demand.flow_spec) ->
      if i > 0 then
        Alcotest.(check bool) "sorted by arrival" true
          (sorted.(i - 1).Demand.arrival_s <= f.Demand.arrival_s);
      Alcotest.(check bool) "arrival in horizon" true
        (f.Demand.arrival_s >= 0.0 && f.Demand.arrival_s < 120.0);
      Alcotest.(check bool) "positive size" true (f.Demand.size_mbit > 0.0);
      Alcotest.(check bool) "pair in range" true
        (f.Demand.pair >= 0 && f.Demand.pair < 8))
    sorted;
  let other =
    Demand.create g
      { (Demand.params d) with Demand.seed = 43L }
  in
  Alcotest.(check bool) "seed changes the fingerprint" true
    (Demand.config_key d <> Demand.config_key other);
  Alcotest.(check bool) "fingerprint stable" true
    (Demand.config_key d = Demand.config_key d');
  (* The arrival sort's edge sizes: no flow, one, two. *)
  List.iter
    (fun flows ->
      for seed = 0 to 19 do
        let sorted =
          Demand.sorted_flows
            (Demand.create g
               {
                 (Demand.params d) with
                 Demand.flows;
                 seed = Runner.job_seed 0x5EEDL seed;
               })
        in
        check Alcotest.int "one entry per flow" flows (Array.length sorted);
        Array.iteri
          (fun i (f : Demand.flow_spec) ->
            if i > 0 then
              Alcotest.(check bool) "non-decreasing arrivals" true
                (sorted.(i - 1).Demand.arrival_s <= f.Demand.arrival_s))
          sorted
      done)
    [ 0; 1; 2 ]

(* --- Recovery codec (shared with the resilience scenario) --------------- *)

let test_recovery_dump_roundtrip () =
  let r = Recovery.create () in
  Recovery.record_event r ~action:Fault_plan.Down;
  Recovery.record_affected r ~pair:(3, 1);
  Recovery.record_affected r ~pair:(0, 2);
  Recovery.record_affected r ~pair:(3, 1);
  Recovery.record_failover r ~recovery_s:0.25;
  Recovery.record_failover r ~recovery_s:0.75;
  Recovery.open_blackout r ~now:10.0 ~pair:(5, 6);
  Recovery.close_blackout r ~now:14.0 ~pair:(5, 6);
  Recovery.open_blackout r ~now:20.0 ~pair:(7, 8);
  Recovery.record_revocation r ~segments:4 ~msgs:9 ~bytes:512;
  let bytes r =
    let w = Snapshot.writer () in
    Recovery.write w r;
    Snapshot.contents w
  in
  let b = bytes r in
  (* The affected pairs follow the two event counters. *)
  let rd = Snapshot.reader b in
  ignore (Snapshot.r_int rd);
  ignore (Snapshot.r_int rd);
  let affected =
    Snapshot.r_list rd (fun rd ->
        let a = Snapshot.r_int rd in
        (a, Snapshot.r_int rd))
  in
  check Alcotest.int "affected deduped" 2 (List.length affected);
  Alcotest.(check bool) "affected sorted" true
    (affected = List.sort compare affected);
  let rd = Snapshot.reader b in
  let r' = Recovery.read rd in
  Snapshot.r_end rd;
  Alcotest.(check bool) "bytes round-trip" true (bytes r' = b);
  (* The restored copy keeps accounting live: the open window closes. *)
  Recovery.close_blackout r' ~now:26.0 ~pair:(7, 8);
  let s = Recovery.summary r' in
  check Alcotest.int "failovers preserved" 2 s.Recovery.failovers;
  check Alcotest.int "blackouts counted" 2 s.Recovery.blackouts;
  check (Alcotest.float 1e-9) "blackout time summed" 10.0
    s.Recovery.blackout_time_s

(* --- Traffic_sim ------------------------------------------------------- *)

let sim_config ?(strategy = Strategy.Latency_greedy) ?(width = 1) ?(plan = [])
    () =
  let g, cs = Lazy.force env in
  let demand = small_demand g in
  let paths = resolve_paths cs demand in
  let latency_ms = Geo.latency_table g in
  {
    Traffic_sim.graph = g;
    paths;
    latency_ms;
    demand;
    strategy;
    width;
    plan = Fault_plan.plan ~seed:5L plan;
    capacity_scale = 0.001;
    slot_s = 1.0;
    slots = 200;
    adapt_margin = (if strategy = Strategy.Load_adaptive then 1.25 else 0.0);
    metric_labels = [ ("workload", "test") ];
  }

let outage_events () =
  (* Fail one link of the most popular pair's first offered path
     mid-run, long enough to hit many admissions. *)
  let cfg = sim_config () in
  let link =
    let p = cfg.Traffic_sim.paths.(0).(0) in
    p.Fwd_path.links.(0)
  in
  [ Fault_plan.Link_down { link; at = 40.0; duration = 40.0 } ]

let run_to_end cfg =
  let t = Traffic_sim.create cfg in
  Traffic_sim.advance t ~upto:cfg.Traffic_sim.slots;
  Traffic_sim.finish t;
  t

let test_sim_accounting () =
  let cfg = sim_config () in
  let t = run_to_end cfg in
  let r = Traffic_sim.report t in
  check Alcotest.int "every slot processed" 200 r.Traffic_sim.slots_done;
  check Alcotest.int "arrivals partitioned" 400
    (r.Traffic_sim.flows_admitted + r.Traffic_sim.flows_rejected);
  check Alcotest.int "admitted partitioned" r.Traffic_sim.flows_admitted
    (r.Traffic_sim.flows_completed + r.Traffic_sim.flows_unfinished);
  Alcotest.(check bool) "flows completed" true (r.Traffic_sim.flows_completed > 0);
  Alcotest.(check bool) "traffic delivered" true
    (r.Traffic_sim.delivered_mbit > 0.0);
  Alcotest.(check bool) "mean fct positive" true (r.Traffic_sim.mean_fct_s > 0.0);
  Alcotest.(check bool) "utilization sane" true
    (r.Traffic_sim.max_utilization >= r.Traffic_sim.mean_utilization
    && r.Traffic_sim.mean_utilization > 0.0)

let test_sim_lone_flow_line_rate () =
  (* Oracle: a flow alone in the network, split over the two parallel
     core links, runs at the sum of their capacities, so it completes
     size / (c0 + c1) seconds after it arrives and carries exactly its
     size across the two one-link paths. *)
  let g = network () in
  let demand =
    Demand.create g
      {
        Demand.default_params with
        Demand.n_pairs = 1;
        flows = 1;
        horizon_s = 10.0;
        seed = 3L;
      }
  in
  let spec = (Demand.sorted_flows demand).(0) in
  let load = Link_load.create ~capacity_scale:0.001 g in
  let rate = Link_load.capacity_mbps load 0 +. Link_load.capacity_mbps load 1 in
  let fct = spec.Demand.size_mbit /. rate in
  let cfg =
    {
      Traffic_sim.graph = g;
      paths = [| [| fpath [ 0 ]; fpath [ 1 ] |] |];
      latency_ms = Array.make (Graph.num_links g) 5.0;
      demand;
      strategy = Strategy.Load_adaptive;
      width = 2;
      plan = Fault_plan.plan [];
      capacity_scale = 0.001;
      slot_s = 1.0;
      slots = int_of_float (Float.ceil (spec.Demand.arrival_s +. fct)) + 1;
      adapt_margin = 1.25;
      metric_labels = [];
    }
  in
  let r = Traffic_sim.report (run_to_end cfg) in
  check Alcotest.int "completed" 1 r.Traffic_sim.flows_completed;
  check Alcotest.int "no switches" 0 r.Traffic_sim.path_switches;
  check (Alcotest.float (1e-9 *. fct)) "fct = size / (c0 + c1)" fct
    r.Traffic_sim.mean_fct_s;
  check
    (Alcotest.float (1e-9 *. spec.Demand.size_mbit))
    "delivered = size" spec.Demand.size_mbit r.Traffic_sim.delivered_mbit

let registry_bytes t =
  let w = Snapshot.writer () in
  Registry.write w (Traffic_sim.registry t);
  Snapshot.contents w

(* Every strategy, so each one's selection over the per-pair tables a
   restore rebuilds, inside the outage too, is covered. *)
let test_sim_chunked_equals_direct () =
  List.iter
    (fun strategy ->
      let cfg = sim_config ~strategy ~width:2 ~plan:(outage_events ()) () in
      let direct = run_to_end cfg in
      (* Chunked: advance 7 slots at a time, snapshotting and restoring
         between every chunk — the checkpoint/resume path. *)
      let state = ref (Traffic_sim.encode (Traffic_sim.create cfg)) in
      let upto = ref 0 in
      while !upto < 200 do
        upto := min 200 (!upto + 7);
        let t = Traffic_sim.restore cfg !state in
        Traffic_sim.advance t ~upto:!upto;
        state := Traffic_sim.encode t
      done;
      let chunked = Traffic_sim.restore cfg !state in
      Traffic_sim.finish chunked;
      let t_direct = Traffic_sim.report direct in
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": chunked run is byte-identical")
        true
        (t_direct = Traffic_sim.report chunked);
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": registries agree")
        true
        (registry_bytes direct = registry_bytes chunked))
    Strategy.all

let test_sim_restore_rejects_corrupt () =
  let cfg = sim_config () in
  let t = Traffic_sim.create cfg in
  Traffic_sim.advance t ~upto:50;
  let s = Traffic_sim.encode t in
  (match
     Traffic_sim.restore cfg (String.sub s 0 (String.length s / 2))
   with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated snapshot accepted");
  let r = Traffic_sim.restore cfg s in
  check Alcotest.int "clock restored" 50 (Traffic_sim.slot r);
  (* Turn the admitted-flows counter into a gauge. Its kind tag follows
     the name and the label list [workload=test]: a count and two
     strings, each prefixed with an 8-byte length. *)
  let name = "traffic_flows_admitted_total" in
  let rec find i =
    if String.sub s i (String.length name) = name then i else find (i + 1)
  in
  let tag = find 0 + String.length name + 8 + (8 + 8) + (8 + 4) in
  check Alcotest.string "labels precede the tag" "test"
    (String.sub s (tag - 4) 4);
  check Alcotest.char "counter tag" '\000' s.[tag];
  let b = Bytes.of_string s in
  Bytes.set b tag '\001';
  match Traffic_sim.restore cfg (Bytes.to_string b) with
  | exception Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "counter turned gauge accepted"

let prop_sim_restore_total =
  let cfg =
    lazy
      (sim_config ~strategy:Strategy.Load_adaptive ~width:2
         ~plan:(outage_events ()) ())
  in
  Test_supervise.prop_restore_total ~name:"sim restore raises only Corrupt"
    (fun s -> Traffic_sim.restore (Lazy.force cfg) s)
    (lazy
      (let t = Traffic_sim.create (Lazy.force cfg) in
       Traffic_sim.advance t ~upto:50;
       Traffic_sim.encode t))

let test_sim_bit_flips () =
  let cfg =
    sim_config ~strategy:Strategy.Load_adaptive ~width:2
      ~plan:(outage_events ()) ()
  in
  let t = Traffic_sim.create cfg in
  Traffic_sim.advance t ~upto:50;
  Test_supervise.check_bit_flips ~restore:(Traffic_sim.restore cfg)
    ~encode:Traffic_sim.encode (Traffic_sim.encode t)

let test_sim_overwrites () =
  let cfg =
    sim_config ~strategy:Strategy.Load_adaptive ~width:2
      ~plan:(outage_events ()) ()
  in
  let t = Traffic_sim.create cfg in
  Traffic_sim.advance t ~upto:50;
  Test_supervise.check_overwrites ~restore:(Traffic_sim.restore cfg)
    ~encode:Traffic_sim.encode (Traffic_sim.encode t)

let test_sim_fault_composition () =
  let cfg = sim_config ~plan:(outage_events ()) () in
  let t = run_to_end cfg in
  let s = (Traffic_sim.report t).Traffic_sim.recovery in
  check Alcotest.int "down event seen" 1 s.Recovery.events_down;
  check Alcotest.int "up event seen" 1 s.Recovery.events_up;
  Alcotest.(check bool) "outage touched pairs" true (s.Recovery.affected_pairs > 0);
  Alcotest.(check bool) "failovers recorded" true (s.Recovery.failovers > 0);
  (* A fault-free run of the same config books nothing. *)
  let calm = run_to_end (sim_config ()) in
  let c = (Traffic_sim.report calm).Traffic_sim.recovery in
  check Alcotest.int "calm: no failovers" 0 c.Recovery.failovers;
  check Alcotest.int "calm: no blackouts" 0 c.Recovery.blackouts

(* Oracle for blackout accounting, derived by hand. One pair rides the
   two parallel core links of [network ()] (links 0 and 1), one link per
   offered path; link 0 is the faster (5 vs 6 ms), so latency-greedy at
   width 1 places every flow on path 0 while it is alive. Both links
   fail at 40 s and return at 80 s, in plan order: down 0, down 1, up 0,
   up 1. Capacity is so small that no flow completes: even alone on a
   core link (0.01 Mbit/s) a flow carries 1.2 Mbit in the 120 s run,
   below the least Pareto size, 40 × (1.5 - 1) / 1.5 = 13.3 Mbit. Faults
   apply at the start of a slot, before its admissions, so:
   - a flow arriving before 40 s rides path 0. Down 0 moves it to path
     1 (a failover and a path switch, link 1 still up), down 1 strands
     it (a blackout opened at 40 s), up 0 puts it back on path 0 at
     80 s: 40 s of blackout each;
   - a flow arriving at [a] in [40, 80) prefers path 0, finds it dead,
     and finds no live path: a blackout from [a] to the up at 80 s;
   - a flow arriving from 80 s on is placed normally and booked
     nothing.
   The up events re-place stalled flows without counting a switch, and
   every window closes before the run ends. Seed 4 puts two arrivals
   before the window (17.2 and 27.9 s), two inside (51.6 and 75.2 s)
   and two after (87.3 and 105.4 s). *)
let test_sim_blackout_oracle () =
  let g = network () in
  let demand =
    Demand.create g
      {
        Demand.default_params with
        Demand.n_pairs = 1;
        flows = 6;
        horizon_s = 120.0;
        seed = 4L;
      }
  in
  let arrivals =
    Array.map (fun f -> f.Demand.arrival_s) (Demand.sorted_flows demand)
  in
  let count p = List.length (List.filter p (Array.to_list arrivals)) in
  let before = count (fun a -> a < 40.0) in
  let during = count (fun a -> a >= 40.0 && a < 80.0) in
  check
    Alcotest.(list int)
    "arrivals before, during and after the window" [ 2; 2; 2 ]
    [ before; during; 6 - before - during ];
  let latency_ms = Array.make (Graph.num_links g) 5.0 in
  latency_ms.(1) <- 6.0;
  let window link = Fault_plan.Link_down { link; at = 40.0; duration = 40.0 } in
  let cfg =
    {
      Traffic_sim.graph = g;
      paths = [| [| fpath [ 0 ]; fpath [ 1 ] |] |];
      latency_ms;
      demand;
      strategy = Strategy.Latency_greedy;
      width = 1;
      plan = Fault_plan.plan [ window 0; window 1 ];
      capacity_scale = 1e-6;
      slot_s = 1.0;
      slots = 120;
      adapt_margin = 0.0;
      metric_labels = [];
    }
  in
  let r = Traffic_sim.report (run_to_end cfg) in
  let s = r.Traffic_sim.recovery in
  check Alcotest.int "no flow completes" 0 r.Traffic_sim.flows_completed;
  (* The two early flows fail over once each, to path 1. *)
  check Alcotest.int "failovers" 2 s.Recovery.failovers;
  check Alcotest.int "path switches" 2 r.Traffic_sim.path_switches;
  (* Two early flows stranded by down 1, two arrivals inside. *)
  check Alcotest.int "blackouts" 4 s.Recovery.blackouts;
  check Alcotest.int "unrecovered" 0 s.Recovery.unrecovered;
  check Alcotest.int "affected pairs" 1 s.Recovery.affected_pairs;
  check
    (Alcotest.float 1e-9)
    "blackout time: 2 x 40 s + (80 - a) per arrival inside"
    ((2.0 *. 40.0) +. (80.0 -. arrivals.(2)) +. (80.0 -. arrivals.(3)))
    s.Recovery.blackout_time_s

let test_sim_config_key_sensitivity () =
  let a = sim_config () in
  let b = sim_config ~strategy:Strategy.Diversity_max () in
  Alcotest.(check bool) "same config, same key" true
    (Traffic_sim.config_key a = Traffic_sim.config_key (sim_config ()));
  Alcotest.(check bool) "strategy changes the key" true
    (Traffic_sim.config_key a <> Traffic_sim.config_key b);
  Alcotest.(check bool) "plan changes the key" true
    (Traffic_sim.config_key a
    <> Traffic_sim.config_key (sim_config ~plan:(outage_events ()) ()))

(* --- Swarm ------------------------------------------------------------- *)

let test_swarm_multipath_wins () =
  let g, cs = Lazy.force env in
  let p =
    {
      Swarm.transfers = 150;
      n_pairs = 6;
      file_mbit = 100.0;
      width = 3;
      horizon_s = 60.0;
      drain_s = 300.0;
      seed = 9L;
    }
  in
  let demand = Swarm.demand g p in
  let paths = resolve_paths cs demand in
  let latency_ms = Geo.latency_table g in
  let run mode =
    let cfg =
      Swarm.cell_config ~graph:g ~paths ~latency_ms ~demand
        ~capacity_scale:0.01 ~slot_s:1.0 p mode
    in
    Traffic_sim.report (run_to_end cfg)
  in
  let single = run Swarm.Single_path in
  let multi_diversity = run Swarm.Multi_diversity in
  let multi_adaptive = run Swarm.Multi_adaptive in
  let c = Swarm.compare ~single ~multi_diversity ~multi_adaptive in
  Alcotest.(check bool) "everyone finished some transfers" true
    (single.Traffic_sim.flows_completed > 0
    && multi_diversity.Traffic_sim.flows_completed > 0);
  Alcotest.(check bool) "multipath beats single-path FCT" true
    (multi_diversity.Traffic_sim.mean_fct_s < single.Traffic_sim.mean_fct_s);
  Alcotest.(check bool) "diversity speedup > 1" true
    (c.Swarm.speedup_diversity > 1.0);
  Alcotest.(check bool) "adaptive multipath also wins" true
    (c.Swarm.speedup_adaptive > 1.0)

(* --- The scenario: jobs- and resume-independence ------------------------ *)

let test_scenario_jobs_independent () =
  let cfg =
    Traffic_exp.config ~seed:11L ~flows:300 ~swarm_transfers:80
      Exp_common.Tiny
  in
  let a = Traffic_exp.run ~jobs:1 cfg in
  let b = Traffic_exp.run ~jobs:2 cfg in
  Alcotest.(check bool) "jobs=1 equals jobs=2" true
    (Obs_json.to_string (Traffic_exp.to_json a)
    = Obs_json.to_string (Traffic_exp.to_json b));
  check Alcotest.int "clean exit" 0 (Traffic_exp.exit_code a);
  let resumed =
    Test_supervise.kill_and_resume ~every:1 (fun sup ->
        Traffic_exp.run ~jobs:2 { cfg with Traffic_exp.sup })
  in
  check Alcotest.string "killed + resumed equals uninterrupted"
    (Obs_json.to_string (Traffic_exp.to_json a))
    (Obs_json.to_string (Traffic_exp.to_json resumed));
  (match a.Traffic_exp.swarm with
  | None -> Alcotest.fail "swarm comparison missing"
  | Some c ->
      Alcotest.(check bool) "scenario swarm speedup > 1" true
        (c.Swarm.speedup_diversity > 1.0));
  Alcotest.(check bool) "outage produced failovers" true
    (List.exists
       (fun (cell : Traffic_exp.cell_result) ->
         match cell.Traffic_exp.report with
         | Some r -> r.Traffic_sim.recovery.Recovery.failovers > 0
         | None -> false)
       a.Traffic_exp.cells)

let suite =
  [
    ("link-load capacities", `Quick, test_link_load_capacities);
    ("link-load fair share", `Quick, test_link_load_fair_share);
    QCheck_alcotest.to_alcotest prop_link_load_rates;
    ("strategy contract", `Quick, test_strategy_contract);
    ("strategy usable mask", `Quick, test_strategy_usable);
    ("strategy latency-greedy", `Quick, test_strategy_latency_greedy);
    ("strategy diversity", `Quick, test_strategy_diversity);
    ("strategy load-adaptive shifts", `Quick, test_strategy_load_adaptive_shifts);
    ("strategy names", `Quick, test_strategy_names);
    QCheck_alcotest.to_alcotest prop_selectors_equal_reference;
    ("demand pure and sorted", `Quick, test_demand_pure_and_sorted);
    ("recovery dump round-trip", `Quick, test_recovery_dump_roundtrip);
    ("sim accounting", `Quick, test_sim_accounting);
    ("sim lone flow at line rate", `Quick, test_sim_lone_flow_line_rate);
    ("sim chunked equals direct", `Quick, test_sim_chunked_equals_direct);
    ("sim restore rejects corrupt", `Quick, test_sim_restore_rejects_corrupt);
    ("sim fault composition", `Quick, test_sim_fault_composition);
    ("sim blackout oracle", `Quick, test_sim_blackout_oracle);
    ("sim config-key sensitivity", `Quick, test_sim_config_key_sensitivity);
    ("swarm multipath wins", `Slow, test_swarm_multipath_wins);
    ("scenario jobs-independent", `Slow, test_scenario_jobs_independent);
    QCheck_alcotest.to_alcotest prop_sim_restore_total;
    ("sim bit flips decode canonically", `Quick, test_sim_bit_flips);
    ("sim byte overwrites decode canonically", `Quick, test_sim_overwrites);
  ]
