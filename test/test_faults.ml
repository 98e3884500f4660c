(* Tests for scion_faults: plan compilation, flap scheduling, link
   state refcounting, cursor replay, and the engine's reaction wiring
   (revocation propagation, endpoint failover, blackout accounting). *)

let check = Alcotest.check

(* Ring of 4 core ASes plus a chord, so the monitored pair 0 <-> 2 has
   a direct link and two 2-hop alternates. *)
let ring () =
  let b = Graph.builder () in
  let c = Array.init 4 (fun i -> Graph.add_as b ~core:true (Id.ia 1 (i + 1))) in
  Graph.add_link b ~rel:Graph.Core c.(0) c.(1);
  Graph.add_link b ~rel:Graph.Core c.(1) c.(2);
  Graph.add_link b ~rel:Graph.Core c.(2) c.(3);
  Graph.add_link b ~rel:Graph.Core c.(3) c.(0);
  Graph.add_link b ~rel:Graph.Core c.(0) c.(2);
  Graph.freeze b

let direct_link g = (List.hd (Graph.links_between g 0 2)).Graph.link_id

(* --- Fault_plan --- *)

let test_plan_compile_deterministic () =
  let g = ring () in
  let plan =
    Fault_plan.plan ~seed:11L
      [
        Fault_plan.Stochastic
          { mtbf = 3600.0; mttr = 600.0; start = 0.0; until = 21600.0 };
        Fault_plan.Link_down { link = 0; at = 100.0; duration = 50.0 };
      ]
  in
  let a = Fault_plan.compile ~graph:g plan in
  let b = Fault_plan.compile ~graph:g plan in
  Alcotest.(check bool) "same plan compiles identically" true (a = b);
  Alcotest.(check bool) "stochastic spec produced events" true (Array.length a > 2);
  Array.iteri
    (fun i (e : Fault_plan.event) ->
      if i > 0 then
        Alcotest.(check bool) "sorted by time" true
          (a.(i - 1).Fault_plan.time <= e.Fault_plan.time))
    a;
  let other = Fault_plan.compile ~graph:g { plan with Fault_plan.seed = 12L } in
  Alcotest.(check bool) "different seed, different stochastic draws" true (a <> other)

let test_stochastic_renewal_means () =
  (* Oracle: the alternating renewal model the spec documents. Per
     link the events alternate Down/Up, every failure falls in
     [start, until), and over ~1000 cycles per link the sample means
     of the up and repair times approach mtbf and mttr. *)
  let g = ring () in
  let mtbf = 900.0 and mttr = 100.0 and start = 50.0 and until = 1.0e6 in
  let events =
    Fault_plan.compile ~graph:g
      (Fault_plan.plan ~seed:42L
         [ Fault_plan.Stochastic { mtbf; mttr; start; until } ])
  in
  let ups = ref [] and repairs = ref [] in
  for l = 0 to Graph.num_links g - 1 do
    let mine =
      List.filter
        (fun (e : Fault_plan.event) -> e.Fault_plan.link = l)
        (Array.to_list events)
    in
    let rec walk prev_up = function
      | (d : Fault_plan.event) :: (u : Fault_plan.event) :: rest ->
          Alcotest.(check bool) "down then up" true
            (d.Fault_plan.action = Fault_plan.Down
            && u.Fault_plan.action = Fault_plan.Up);
          Alcotest.(check bool) "failure inside [start, until)" true
            (d.Fault_plan.time >= start && d.Fault_plan.time < until);
          ups := (d.Fault_plan.time -. prev_up) :: !ups;
          repairs := (u.Fault_plan.time -. d.Fault_plan.time) :: !repairs;
          walk u.Fault_plan.time rest
      | [] -> ()
      | [ _ ] -> Alcotest.fail "unpaired event"
    in
    walk start mine
  done;
  let mean xs =
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  Alcotest.(check bool) "thousands of cycles" true (List.length !ups > 4000);
  Alcotest.(check (float (0.05 *. mtbf))) "mean up time ~ mtbf" mtbf
    (mean !ups);
  Alcotest.(check (float (0.05 *. mttr))) "mean repair ~ mttr" mttr
    (mean !repairs)

let test_plan_compile_validates () =
  let g = ring () in
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Fault_plan.compile: unknown link 99") (fun () ->
      ignore
        (Fault_plan.compile ~graph:g
           (Fault_plan.plan
              [ Fault_plan.Link_down { link = 99; at = 0.0; duration = 1.0 } ])))

let test_flap_scheduling () =
  let g = ring () in
  let events =
    Fault_plan.compile ~graph:g
      (Fault_plan.plan
         [
           Fault_plan.Flapping
             {
               link = 1;
               at = 100.0;
               period = 60.0;
               down_fraction = 0.25;
               until = 280.0;
             };
         ])
  in
  (* Cycles start at 100, 160, 220 (280 is past [until]): three
     down/up pairs, each down for 15 s. *)
  let expect =
    [
      (100.0, Fault_plan.Down); (115.0, Fault_plan.Up);
      (160.0, Fault_plan.Down); (175.0, Fault_plan.Up);
      (220.0, Fault_plan.Down); (235.0, Fault_plan.Up);
    ]
  in
  check Alcotest.int "event count" (List.length expect) (Array.length events);
  List.iteri
    (fun i (t, a) ->
      check (Alcotest.float 1e-9) "flap time" t events.(i).Fault_plan.time;
      check Alcotest.int "flap link" 1 events.(i).Fault_plan.link;
      Alcotest.(check bool) "flap action" true (events.(i).Fault_plan.action = a))
    expect

let test_as_outage_covers_incident_links () =
  let g = ring () in
  let events =
    Fault_plan.compile ~graph:g
      (Fault_plan.plan
         [ Fault_plan.As_outage { as_idx = 2; at = 10.0; duration = 5.0 } ])
  in
  (* AS 2 touches three links (ring neighbours 1 and 3, chord to 0). *)
  check Alcotest.int "3 links x down+up" 6 (Array.length events);
  let downs =
    Array.to_list events
    |> List.filter_map (fun (e : Fault_plan.event) ->
           if e.Fault_plan.action = Fault_plan.Down then Some e.Fault_plan.link
           else None)
  in
  List.iter
    (fun l ->
      let lk = Graph.link g l in
      Alcotest.(check bool) "down link touches AS 2" true
        (lk.Graph.a = 2 || lk.Graph.b = 2))
    downs

let test_sample_adjacencies_siblings () =
  let b = Graph.builder () in
  let x = Graph.add_as b ~core:true (Id.ia 1 1) in
  let y = Graph.add_as b ~core:true (Id.ia 1 2) in
  let z = Graph.add_as b ~core:true (Id.ia 1 3) in
  Graph.add_link b ~count:2 ~rel:Graph.Core x y;
  Graph.add_link b ~rel:Graph.Core y z;
  let g = Graph.freeze b in
  let rng = Rng.create 5L in
  let picked =
    Fault_plan.sample_adjacencies ~rng ~count:2 g
      ~accept:(fun ~link:_ ~siblings -> Some siblings)
  in
  check Alcotest.int "two adjacencies" 2 (List.length picked);
  (* The parallel x--y links form one adjacency; picking it once must
     exclude its sibling, so the two results are distinct groups. *)
  (match picked with
  | [ s1; s2 ] ->
      Alcotest.(check bool) "distinct sibling groups" true
        (not (List.exists (fun l -> List.mem l s2) s1))
  | _ -> Alcotest.fail "expected two groups");
  (* Deterministic in the RNG. *)
  let again =
    Fault_plan.sample_adjacencies ~rng:(Rng.create 5L) ~count:2 g
      ~accept:(fun ~link:_ ~siblings -> Some siblings)
  in
  Alcotest.(check bool) "same rng, same sample" true (picked = again)

(* --- Link_state --- *)

let test_link_state_refcount () =
  let st = Link_state.create ~n_links:3 in
  Alcotest.(check bool) "starts up" true (Link_state.up st 1);
  Alcotest.(check bool) "0->1 is a transition" true
    (Link_state.apply st ~now:5.0 ~link:1 ~action:Fault_plan.Down
    = Link_state.Went_down);
  Alcotest.(check bool) "second cause collapses" true
    (Link_state.apply st ~now:6.0 ~link:1 ~action:Fault_plan.Down
    = Link_state.No_change);
  Alcotest.(check bool) "down" false (Link_state.up st 1);
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "down since first cause" (Some 5.0) (Link_state.down_since st 1);
  Alcotest.(check bool) "first repair not enough" true
    (Link_state.apply st ~now:7.0 ~link:1 ~action:Fault_plan.Up
    = Link_state.No_change);
  Alcotest.(check bool) "second repair restores" true
    (Link_state.apply st ~now:8.0 ~link:1 ~action:Fault_plan.Up
    = Link_state.Went_up);
  Alcotest.(check bool) "spurious up ignored" true
    (Link_state.apply st ~now:9.0 ~link:1 ~action:Fault_plan.Up
    = Link_state.No_change);
  check (Alcotest.list Alcotest.int) "no down links" [] (Link_state.down_links st)

let test_driver_replay () =
  let g = ring () in
  let state = Link_state.create ~n_links:(Graph.num_links g) in
  let log = ref [] in
  let events =
    Fault_plan.compile ~graph:g
      (Fault_plan.plan
         [
           Fault_plan.Link_down { link = 0; at = 10.0; duration = 20.0 };
           Fault_plan.Link_down { link = 0; at = 15.0; duration = 5.0 };
         ])
  in
  let n =
    Link_state.replay state events ~from:0 ~until:infinity
      ~on_down:(fun ~now ~link -> log := (now, link, `Down) :: !log)
      ~on_up:(fun ~now ~link -> log := (now, link, `Up) :: !log)
  in
  check Alcotest.int "cursor past all 4 raw events" 4 n;
  (* The overlapping second failure neither re-fails nor re-repairs:
     one real down at 10, one real up at 30. *)
  check Alcotest.int "two real transitions" 2 (List.length !log);
  Alcotest.(check bool) "down at 10, up at 30" true
    (List.rev !log = [ (10.0, 0, `Down); (30.0, 0, `Up) ])

(* Replaying in chunks (as the round-stepped callers and a resumed run
   do) must equal one call. The plan has ties at equal times (two
   failures of link 0 at 10 s, an AS outage taking several links down
   at 40 s), a cut exactly on an event time (until is inclusive) and a
   repair at [infinity], which no finite cut reaches. *)
let prop_replay_chunked =
  let g = ring () in
  let horizon = 600.0 in
  let events seed =
    Array.append
      (Fault_plan.compile ~graph:g
         (Fault_plan.plan ~seed:(Int64.of_int seed)
            [
              Fault_plan.Link_down { link = 0; at = 10.0; duration = 20.0 };
              Fault_plan.Link_down { link = 0; at = 10.0; duration = 5.0 };
              Fault_plan.As_outage { as_idx = 2; at = 40.0; duration = 30.0 };
              Fault_plan.Flapping
                {
                  link = 1;
                  at = 0.0;
                  period = 20.0;
                  down_fraction = 0.5;
                  until = 100.0;
                };
              Fault_plan.Link_down { link = 3; at = 50.0; duration = infinity };
              Fault_plan.Stochastic
                { mtbf = 150.0; mttr = 30.0; start = 0.0; until = horizon };
            ]))
      [| { Fault_plan.time = infinity; link = 3; action = Fault_plan.Up } |]
  in
  (* Every returned cursor must count exactly the events due by [until]. *)
  let due events until =
    Array.fold_left
      (fun k (e : Fault_plan.event) ->
        if e.Fault_plan.time <= until then k + 1 else k)
      0 events
  in
  let replay events cuts =
    let st = Link_state.create ~n_links:(Graph.num_links g) in
    let log = ref [] in
    let cursor =
      List.fold_left
        (fun from until ->
          let c =
            Link_state.replay st events ~from ~until
              ~on_down:(fun ~now ~link -> log := (now, link, `Down) :: !log)
              ~on_up:(fun ~now ~link -> log := (now, link, `Up) :: !log)
          in
          if c <> due events until then
            QCheck.Test.fail_reportf "cursor %d after until=%g, %d events due" c
              until (due events until);
          c)
        0 cuts
    in
    let holds = Array.init (Graph.num_links g) (Link_state.holds st) in
    (cursor, List.rev !log, holds)
  in
  QCheck.Test.make ~name:"replay in chunks equals one replay" ~count:200
    QCheck.(
      pair (int_bound 1000)
        (list_of_size (Gen.int_range 0 8)
           (pair (float_bound_inclusive horizon) (option small_nat))))
    (fun (seed, cuts) ->
      let events = events seed in
      let n = Array.length events in
      (* [Some i] cuts exactly on the time of a finite event (capped at
         the horizon: a stochastic repair may fall after it). *)
      let cuts =
        List.map
          (function
            | _, Some i ->
                Float.min horizon events.(i mod (n - 1)).Fault_plan.time
            | x, None -> x)
          cuts
      in
      let chunked =
        replay events (List.sort compare (10.0 :: cuts) @ [ horizon ])
      in
      let ((cursor, _, holds) as whole) = replay events [ horizon ] in
      chunked = whole && cursor < n && holds.(3) > 0)

(* --- Beacon_store.drop_link / Beaconing link_up gate --- *)

let test_store_drop_link () =
  let store = Beacon_store.create ~limit:10 in
  let p1 = Pcb.origin_pcb ~origin:7 ~now:0.0 ~lifetime:3600.0 in
  let a = Pcb.extend p1 ~asn:7 ~ingress:0 ~egress:1 ~link:3 ~peers:[||] in
  let b = Pcb.extend p1 ~asn:7 ~ingress:0 ~egress:2 ~link:4 ~peers:[||] in
  ignore (Beacon_store.insert store ~now:1.0 a);
  ignore (Beacon_store.insert store ~now:1.0 b);
  check Alcotest.int "two stored" 2 (Beacon_store.total store);
  check Alcotest.int "one dropped" 1 (Beacon_store.drop_link store ~link:3);
  check Alcotest.int "one left" 1 (Beacon_store.total store);
  check Alcotest.int "survivor avoids the link" 0
    (List.length
       (List.filter
          (fun (p : Pcb.t) -> Array.exists (fun l -> l = 3) p.Pcb.links)
          (Beacon_store.paths store ~now:2.0 ~origin:7)));
  check Alcotest.int "unknown link no-op" 0 (Beacon_store.drop_link store ~link:99)

let test_beaconing_link_up_gate () =
  let g = ring () in
  let cfg = { Beaconing.default_config with Beaconing.duration = 1800.0 } in
  let gated link_up =
    let e = Beaconing.engine g cfg in
    for round = 0 to (Beaconing.engine_stats e).Beaconing.rounds - 1 do
      Beaconing.engine_round ~link_up e ~round
    done;
    Beaconing.engine_stats e
  in
  let closed = gated (fun _ -> false) in
  check Alcotest.int "all dissemination suppressed" 0
    closed.Beaconing.total_pcbs;
  check (Alcotest.float 0.0) "no bytes either" 0.0 closed.Beaconing.total_bytes;
  (* Link 0 down: neither of its directions carries a PCB, the rest do. *)
  let one = gated (fun l -> l <> 0) in
  check Alcotest.int "nothing over the dead link" 0
    (one.Beaconing.pcbs_on_iface.(0) + one.Beaconing.pcbs_on_iface.(1));
  Alcotest.(check bool) "the live links still disseminate" true
    (one.Beaconing.total_pcbs > 0);
  let open_ = Beaconing.run g cfg in
  Alcotest.(check bool) "ungated run disseminates more" true
    (open_.Beaconing.stats.Beaconing.total_pcbs > one.Beaconing.total_pcbs)

(* --- Fault_engine --- *)

(* The SCMP notification crosses every hop between the failure and the
   source at 10 ms each (§4.1); the source then fails over at once to a
   path that avoids the failure, or waits out a blackout if none does. *)
let test_failover_delay () =
  let hop p asn link = Pcb.extend p ~asn ~ingress:1 ~egress:2 ~link ~peers:[||] in
  let origin = Pcb.origin_pcb ~origin:7 ~now:0.0 ~lifetime:3600.0 in
  let three = hop (hop (hop origin 7 10) 8 11) 9 12 in
  let spare = hop origin 7 20 in
  let react failed =
    Fault_engine.react (fun l -> List.mem l failed) [ spare; three ]
  in
  let delay failed =
    match react failed with
    | Fault_engine.Failover { delay_s; spares } ->
        check Alcotest.int "one spare path" 1 spares;
        delay_s
    | Fault_engine.Unaffected | Fault_engine.Blackout ->
        Alcotest.fail "expected a failover"
  in
  let ms = Alcotest.float 1e-12 in
  check ms "three hops" 0.030 (delay [ 12 ]);
  check ms "the last failed link counts" 0.030 (delay [ 10; 12 ]);
  check ms "adjacent failure" 0.010 (delay [ 10 ]);
  Alcotest.(check bool) "no affected path: unaffected" true
    (react [ 99 ] = Fault_engine.Unaffected);
  Alcotest.(check bool) "no spare path: blackout" true
    (react [ 12; 20 ] = Fault_engine.Blackout);
  Alcotest.(check bool) "no path at all: unaffected" true
    (Fault_engine.react (fun _ -> true) [] = Fault_engine.Unaffected)

(* 16 B header + 64 B quote + 16 B link payload = 96 B per message. *)
let test_revocation_cost () =
  let lk = Graph.link (ring ()) 0 in
  let cost notified = Fault_engine.revocation lk ~now:0.0 ~notified in
  check Alcotest.(pair int int) "path server only" (1, 96) (cost 0);
  check Alcotest.(pair int int) "three endpoints too" (4, 384) (cost 3)

let engine_cfg g plan =
  {
    Fault_engine.graph = g;
    beacon = { Beaconing.default_config with Beaconing.duration = 4800.0 };
    plan;
    pairs = [| (0, 2) |];
  }

let test_engine_failover_and_revocation () =
  let g = ring () in
  let l = direct_link g in
  let plan =
    Fault_plan.plan [ Fault_plan.Link_down { link = l; at = 1800.0; duration = 1200.0 } ]
  in
  let r = Fault_engine.run (engine_cfg g plan) in
  let s = r.Fault_engine.recovery in
  check Alcotest.int "one real down" 1 s.Recovery.events_down;
  check Alcotest.int "one real up" 1 s.Recovery.events_up;
  check Alcotest.int "pair affected" 1 s.Recovery.affected_pairs;
  check Alcotest.int "failover, not blackout" 1 s.Recovery.failovers;
  check Alcotest.int "no blackout" 0 s.Recovery.blackouts;
  (* SCMP came back from the adjacent AS: one 10 ms hop of delay. *)
  check (Alcotest.float 1e-9) "recovery = one scmp hop" 0.010
    s.Recovery.recovery_samples.(0);
  Alcotest.(check bool) "stores dropped PCBs over the link" true
    (s.Recovery.dropped_pcbs > 0);
  Alcotest.(check bool) "path server purged segments" true
    (s.Recovery.revoked_segments > 0);
  (* One notified endpoint plus the path server. *)
  check Alcotest.int "revocation messages" 2 s.Recovery.revocation_msgs;
  check (Alcotest.float 1e-9) "revocation bytes = 2 scmp messages"
    (float_of_int
       (2
       * Scmp.wire_bytes
           {
             Scmp.kind =
               Scmp.Link_failure { link = l; if_a = 0; if_b = 0; expiry = 0.0 };
             origin_as = 0;
             at = 0.0;
           }))
    s.Recovery.revocation_bytes;
  check Alcotest.int "validation delivers end-to-end" 1
    r.Fault_engine.validated_delivered

let test_engine_blackout_and_recovery () =
  let g = ring () in
  let plan =
    Fault_plan.plan
      [ Fault_plan.As_outage { as_idx = 2; at = 1800.0; duration = 1200.0 } ]
  in
  let r = Fault_engine.run (engine_cfg g plan) in
  let s = r.Fault_engine.recovery in
  check Alcotest.int "pair affected" 1 s.Recovery.affected_pairs;
  check Alcotest.int "blackout opened" 1 s.Recovery.blackouts;
  check Alcotest.int "and recovered" 0 s.Recovery.unrecovered;
  (* Dark from the outage at 1800 until the first beaconing round
     after the repair at 3000 re-delivers a path from origin 2. *)
  check (Alcotest.float 1e-9) "blackout spans the outage" 1200.0
    s.Recovery.blackout_time_s;
  Alcotest.(check bool) "blackout recorded as a recovery sample" true
    (Array.exists (fun x -> x = 1200.0) s.Recovery.recovery_samples);
  check Alcotest.int "validation delivers after recovery" 1
    r.Fault_engine.validated_delivered

let test_engine_permanent_outage () =
  let g = ring () in
  let plan =
    Fault_plan.plan
      [ Fault_plan.As_outage { as_idx = 2; at = 1800.0; duration = infinity } ]
  in
  let r = Fault_engine.run (engine_cfg g plan) in
  let s = r.Fault_engine.recovery in
  check Alcotest.int "blackout opened" 1 s.Recovery.blackouts;
  check Alcotest.int "never recovered" 1 s.Recovery.unrecovered;
  (* Truncated at the 4800 s horizon. *)
  check (Alcotest.float 1e-9) "blackout runs to the horizon" 3000.0
    s.Recovery.blackout_time_s;
  check Alcotest.int "no end-to-end delivery" 0 r.Fault_engine.validated_delivered;
  check Alcotest.int "validation still attempted the pair" 1
    r.Fault_engine.validated_pairs

let test_engine_deterministic () =
  let g = ring () in
  let plan =
    Fault_plan.plan ~seed:3L
      [
        Fault_plan.Stochastic
          { mtbf = 4800.0; mttr = 600.0; start = 600.0; until = 4800.0 };
      ]
  in
  let a = Fault_engine.run (engine_cfg g plan) in
  let b = Fault_engine.run (engine_cfg g plan) in
  Alcotest.(check bool) "identical recovery summaries" true
    (a.Fault_engine.recovery = b.Fault_engine.recovery);
  check Alcotest.int "identical validation" a.Fault_engine.validated_delivered
    b.Fault_engine.validated_delivered

(* A resilience trial's final state is exactly an [Invariants.ctx]: after
   the post-run replay to the horizon, with an AS outage and stochastic
   failures still holding links down, no stored PCB or registered
   segment may cross a down link, for either algorithm. *)
let test_engine_final_state_consistent () =
  let full =
    Caida_like.generate { Caida_like.small_params with Caida_like.n = 150 }
  in
  let g, _ = Caida_like.core_subset full ~k:20 in
  let duration = 4800.0 in
  let plan =
    Fault_plan.plan ~seed:5L
      [
        Fault_plan.Stochastic
          { mtbf = 3600.0; mttr = 1200.0; start = 600.0; until = duration };
        Fault_plan.As_outage { as_idx = 3; at = 1800.0; duration = infinity };
      ]
  in
  let events = Fault_plan.compile ~graph:g plan in
  let links = Link_state.create ~n_links:(Graph.num_links g) in
  ignore
    (Link_state.replay links events ~from:0 ~until:duration
       ~on_down:(fun ~now:_ ~link:_ -> ())
       ~on_up:(fun ~now:_ ~link:_ -> ()));
  Alcotest.(check bool) "links are still down at the horizon" true
    (Link_state.down_links links <> []);
  List.iter
    (fun (name, algorithm) ->
      let r =
        Fault_engine.run
          {
            Fault_engine.graph = g;
            beacon =
              {
                Beaconing.default_config with
                Beaconing.algorithm;
                storage_limit = 15;
                duration;
              };
            plan;
            pairs = [| (0, 3); (1, 2); (4, 0); (5, 6); (7, 1) |];
          }
      in
      Alcotest.(check bool) (name ^ ": failures happened") true
        (r.Fault_engine.recovery.Recovery.events_down > 0);
      Alcotest.(check (list string))
        (name ^ ": no invariant violated") []
        (List.map
           (fun v -> v.Invariants.check ^ ": " ^ v.Invariants.detail)
           r.Fault_engine.violations))
    [
      ("baseline", Beacon_policy.Baseline);
      ("diversity", Beacon_policy.Diversity Beacon_policy.default_div_params);
    ]

let suite =
  [
    ("plan compile deterministic", `Quick, test_plan_compile_deterministic);
    ("stochastic renewal means", `Quick, test_stochastic_renewal_means);
    ("plan compile validates", `Quick, test_plan_compile_validates);
    ("flap scheduling", `Quick, test_flap_scheduling);
    ("AS outage covers incident links", `Quick, test_as_outage_covers_incident_links);
    ("adjacency sampler", `Quick, test_sample_adjacencies_siblings);
    ("link state refcount", `Quick, test_link_state_refcount);
    ("driver replay", `Quick, test_driver_replay);
    QCheck_alcotest.to_alcotest prop_replay_chunked;
    ("store drop link", `Quick, test_store_drop_link);
    ("beaconing link_up gate", `Quick, test_beaconing_link_up_gate);
    ("failover delay", `Quick, test_failover_delay);
    ("revocation cost", `Quick, test_revocation_cost);
    ("engine failover + revocation", `Quick, test_engine_failover_and_revocation);
    ("engine blackout + recovery", `Quick, test_engine_blackout_and_recovery);
    ("engine permanent outage", `Quick, test_engine_permanent_outage);
    ("engine deterministic", `Quick, test_engine_deterministic);
    ( "engine final state consistent",
      `Quick,
      test_engine_final_state_consistent );
  ]
