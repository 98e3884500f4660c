(* Tests for scion_experiments: the experiment harnesses at CI scale. *)

let check = Alcotest.check

let test_scales () =
  (match Exp_common.scale_of_string "paper" with
  | Ok s ->
      let d = Exp_common.dimensions s in
      check Alcotest.int "paper full" 12000 d.Exp_common.full_n;
      check Alcotest.int "paper core" 2000 d.Exp_common.core_k;
      check Alcotest.int "paper isd cores" 11 d.Exp_common.isd_cores;
      check Alcotest.int "paper monitors" 26 d.Exp_common.monitors
  | Error e -> Alcotest.fail e);
  (match Exp_common.scale_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject");
  check Alcotest.string "roundtrip" "tiny"
    (Exp_common.scale_to_string
       (Result.get_ok (Exp_common.scale_of_string "tiny")))

let test_months_factor () =
  Alcotest.(check (float 1e-9)) "6h windows per month" 120.0
    (Exp_common.months_factor Exp_common.beacon_config)

let test_sample_pairs () =
  let g = Scionlab.generate Scionlab.default_params in
  let pairs = Exp_common.sample_pairs g ~count:50 ~seed:1L in
  check Alcotest.int "count" 50 (Array.length pairs);
  Array.iter (fun (s, d) -> Alcotest.(check bool) "distinct" true (s <> d)) pairs;
  let uniq = Array.to_list pairs |> List.sort_uniq compare in
  check Alcotest.int "no duplicates" 50 (List.length uniq);
  let again = Exp_common.sample_pairs g ~count:50 ~seed:1L in
  check Alcotest.bool "deterministic" true (pairs = again)

(* Two core ASes joined by a p2c and a peering link, each the provider
   of a leaf: coreify relabels exactly the two core-core links, and
   interface ids follow link order per AS as before. *)
let test_coreify () =
  let b = Graph.builder () in
  let c0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let c1 = Graph.add_as b ~core:true (Id.ia 1 2) in
  let leaf = Graph.add_as b (Id.ia 1 3) in
  Graph.add_link b ~rel:Graph.Provider_customer c0 c1;
  Graph.add_link b ~rel:Graph.Provider_customer c0 leaf;
  Graph.add_link b ~rel:Graph.Provider_customer c1 leaf;
  Graph.add_link b ~rel:Graph.Peering c0 c1;
  let g = Exp_common.coreify (Graph.freeze b) in
  let link l =
    let lk = Graph.link g l in
    (lk.Graph.a, lk.Graph.a_if, lk.Graph.b, lk.Graph.b_if, lk.Graph.rel)
  in
  let want =
    [
      (0, 1, 1, 1, Graph.Core);
      (0, 2, 2, 1, Graph.Provider_customer);
      (1, 2, 2, 2, Graph.Provider_customer);
      (0, 3, 1, 3, Graph.Core);
    ]
  in
  Alcotest.(check bool) "links" true (List.init 4 link = want);
  check (Alcotest.list Alcotest.int) "core flags kept" [ 0; 1 ]
    (Graph.core_ases g);
  Alcotest.(check bool) "c0 sees c1 as core" true
    (Array.for_all
       (fun (h : Graph.half_link) ->
         (h.Graph.peer = c1) = (h.Graph.dir = Graph.To_core))
       (Graph.adj g c0))

let prepared = lazy (Exp_common.prepare Exp_common.Tiny)

let test_prepare_consistency () =
  let p = Lazy.force prepared in
  let d = Exp_common.dimensions Exp_common.Tiny in
  check Alcotest.int "full size" d.Exp_common.full_n (Graph.n p.Exp_common.full);
  Alcotest.(check bool) "core size ~k" true
    (Graph.n p.Exp_common.core <= d.Exp_common.core_k);
  (* Monitors exist in both graphs and match by the old/new mapping. *)
  List.iter2
    (fun mf mc ->
      check Alcotest.int "monitor mapping" mf p.Exp_common.core_old_of_new.(mc))
    p.Exp_common.monitors_full p.Exp_common.monitors_core;
  (* ISD has the requested core count. *)
  check Alcotest.int "isd cores" d.Exp_common.isd_cores
    (List.length (Graph.core_ases p.Exp_common.isd))

(* Table 1's taxonomy as the scenario exports it, in paper order:
   (component, scope, frequency). *)
let table1_taxonomy () =
  let field k row =
    match List.assoc_opt k row with
    | Some (Obs_json.String s) -> s
    | _ -> Alcotest.failf "taxonomy row without %s" k
  in
  match Table1.to_json { Table1.measured = [] } with
  | Obs_json.Obj fields -> (
      match List.assoc_opt "taxonomy" fields with
      | Some (Obs_json.List rows) ->
          List.map
            (function
              | Obs_json.Obj row ->
                  ( field "component" row,
                    field "scope" row,
                    field "frequency" row )
              | _ -> Alcotest.fail "taxonomy row is not an object")
            rows
      | _ -> Alcotest.fail "no taxonomy list")
  | _ -> Alcotest.fail "table1 JSON is not an object"

let test_table1_shape () =
  let names = List.map (fun (n, _, _) -> n) (table1_taxonomy ()) in
  check Alcotest.int "seven components" 7 (List.length names);
  check Alcotest.int "distinct names" 7
    (List.length (List.sort_uniq compare names))

let test_table1_against_paper () =
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) (table1_taxonomy ()) with
    | Some (_, scope, frequency) -> (scope, frequency)
    | None -> Alcotest.failf "no %s row" name
  in
  (* Spot-check the classification against Table 1. *)
  let row = Alcotest.(pair string string) in
  check row "core beaconing global+minutes" ("global", "minutes")
    (find "Core Beaconing");
  check row "endpoint lookup AS+seconds" ("as", "seconds")
    (find "Endpoint Path Lookup");
  check row "down lookup global+hours" ("global", "hours")
    (find "Down-Path Segment Lookup")

let test_scionlab_experiment () =
  let r = Scionlab_exp.run (Scionlab_exp.config ()) in
  check Alcotest.int "210 pairs" 210 (Array.length r.Scionlab_exp.pairs);
  check Alcotest.int "six algos" 6 (List.length r.Scionlab_exp.algos);
  (* Flows bounded by optimum; measurement equals baseline(5). *)
  let find name = List.find (fun (a : Quality_sweep.column) -> a.name = name) r.Scionlab_exp.algos in
  let meas = find "Measurement" and base5 = find "SCION Baseline (5)" in
  check (Alcotest.array Alcotest.int) "measurement = baseline(5)"
    meas.flows base5.flows;
  List.iter
    (fun (a : Quality_sweep.column) ->
      Array.iteri
        (fun i f ->
          Alcotest.(check bool) "bounded by optimum" true
            (f <= r.Scionlab_exp.optimum.(i)))
        a.flows)
    r.Scionlab_exp.algos;
  (* Diversity with a bigger store is never worse on average. *)
  let mean (a : Quality_sweep.column) =
    let s = Array.fold_left ( + ) 0 a.flows in
    float_of_int s /. float_of_int (Array.length a.flows)
  in
  Alcotest.(check bool) "div(60) >= div(5) on average" true
    (mean (find "SCION Diversity (60)") >= mean (find "SCION Diversity (5)") -. 1e-9);
  (* Fig. 9 distribution is non-empty with positive rates. *)
  Alcotest.(check bool) "iface rates present" true
    (Array.length r.Scionlab_exp.iface_bps > 0);
  Array.iter
    (fun b -> Alcotest.(check bool) "non-negative" true (b >= 0.0))
    r.Scionlab_exp.iface_bps

let test_tuning_evaluate () =
  (* A small-diameter core so refresh waves complete within the short
     lifetime used by the tuning objective. *)
  let g =
    Scionlab.generate { Scionlab.default_params with Scionlab.n_core = 8; chords = 3 }
  in
  let o = Tuning.evaluate ~duration_rounds:16 g Beacon_policy.default_div_params in
  Alcotest.(check bool) "connectivity reached" true (o.Tuning.connectivity > 0.9);
  Alcotest.(check bool) "some overhead" true (o.Tuning.overhead_bytes > 0.0);
  Alcotest.(check bool) "capacity fraction in [0,1]" true
    (o.Tuning.capacity_fraction >= 0.0 && o.Tuning.capacity_fraction <= 1.0)

let test_table1_measure () =
  let { Table1.measured } = Table1.run (Table1.config Exp_common.Tiny) in
  check Alcotest.int "seven measured components" 7 (List.length measured);
  let get name = List.find (fun m -> m.Table1.component = name) measured in
  Alcotest.(check bool) "core beaconing has traffic" true
    ((get "Core Beaconing").Table1.bytes > 0.0);
  Alcotest.(check bool) "intra beaconing has traffic" true
    ((get "Intra-ISD Beaconing").Table1.bytes > 0.0);
  Alcotest.(check bool) "registrations happened" true
    ((get "Path (De-)Registration").Table1.messages > 0.0);
  Alcotest.(check bool) "lookups happened" true
    ((get "Endpoint Path Lookup").Table1.messages > 0.0);
  (* The path server's notification plus one per affected endpoint, each
     a 96 B SCMP link-failure message. The failed link is the one the
     most looked-up paths cross, so at least one endpoint is notified. *)
  let rev = get "Path Revocation" in
  Alcotest.(check bool) "revocation reaches an endpoint" true
    (rev.Table1.messages >= 2.0);
  check (Alcotest.float 0.0) "96 B per revocation message"
    (96.0 *. rev.Table1.messages) rev.Table1.bytes

(* The soak configuration of Pathdyn's one cell (one flapping profile,
   storage limit [limit]), as [Pathdyn.run] builds it. *)
let pathdyn_soak_config ~rounds ~limit =
  (Pathdyn.soak_configs
     (Pathdyn.config ~rounds
        ~profiles:
          [
            Pathdyn.P_flapping
              { period_s = 3600.0; down_fraction = 0.25; n_links = 3 };
          ]
        ~limits:[ limit ] Exp_common.Tiny)).(0)

(* Pathdyn at the size the benchmark replays it (one profile, one
   limit, 3 rounds in 1-round chunks): killed at its first checkpoint
   and resumed, it reports exactly what an uninterrupted run does, and
   the uninterrupted cell equals the same soak trial advanced straight
   to the horizon, without supervision, chunks or snapshots. *)
let test_pathdyn_kill_and_resume () =
  let cfg sup =
    Pathdyn.config ~rounds:3 ~chunk:1
      ~profiles:
        [
          Pathdyn.P_flapping
            { period_s = 3600.0; down_fraction = 0.25; n_links = 3 };
        ]
      ~limits:[ 5 ] ~sup Exp_common.Tiny
  in
  let json r = Obs_json.to_string (Pathdyn.to_json r) in
  let want = Pathdyn.run (cfg Supervise.default_cli) in
  check Alcotest.int "clean exit" 0 (Pathdyn.exit_code want);
  check Alcotest.string "killed + resumed equals uninterrupted" (json want)
    (json
       (Test_supervise.kill_and_resume ~every:1 (fun sup ->
            Pathdyn.run ~jobs:2 (cfg sup))));
  let direct = Soak.create (pathdyn_soak_config ~rounds:3 ~limit:5) in
  Soak.advance direct ~upto:3;
  let r = Soak.report direct in
  let c =
    match want.Pathdyn.cells with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one cell"
  in
  let int name got want = check Alcotest.int name want got in
  let float name got want = check (Alcotest.float 0.0) name want got in
  int "no failed cell" (Run_report.n_failed want.Pathdyn.report) 0;
  float "availability mean" c.Pathdyn.availability_mean
    r.Soak.availability_mean;
  float "availability min" c.Pathdyn.availability_min r.Soak.availability_min;
  float "jaccard" c.Pathdyn.jaccard_mean r.Soak.jaccard_overall;
  (* [compare], not [=]: an empty summary holds NaNs. *)
  int "lifetimes" (compare c.Pathdyn.lifetime r.Soak.lifetimes) 0;
  int "survivors" c.Pathdyn.survivors r.Soak.survivors;
  int "link failures" c.Pathdyn.link_failures r.Soak.link_failures;
  int "link repairs" c.Pathdyn.link_repairs r.Soak.link_repairs;
  int "pcbs dropped" c.Pathdyn.pcbs_dropped r.Soak.pcbs_dropped;
  int "segments revoked" c.Pathdyn.segments_revoked r.Soak.segments_revoked;
  int "lookups" c.Pathdyn.lookups
    (r.Soak.ps_stats.Path_server.lookups_core
    + r.Soak.ps_stats.Path_server.lookups_down);
  int "registrations" c.Pathdyn.registrations
    r.Soak.ps_stats.Path_server.registrations;
  int "total pcbs" c.Pathdyn.total_pcbs r.Soak.total_pcbs;
  float "total bytes" c.Pathdyn.total_bytes r.Soak.total_bytes

let suite =
  [
    ("scales", `Quick, test_scales);
    ("months factor", `Quick, test_months_factor);
    ("sample pairs", `Quick, test_sample_pairs);
    ("coreify", `Quick, test_coreify);
    ("prepare consistency", `Quick, test_prepare_consistency);
    ("table1 shape", `Quick, test_table1_shape);
    ("table1 against paper", `Quick, test_table1_against_paper);
    ("scionlab experiment", `Slow, test_scionlab_experiment);
    ("tuning evaluate", `Quick, test_tuning_evaluate);
    ("table1 measure", `Slow, test_table1_measure);
    ("pathdyn kill and resume", `Slow, test_pathdyn_kill_and_resume);
  ]
