(* Benchmark harness.

   Two parts:

   1. Regeneration — every table and figure of the paper is regenerated
      at bench scale (shortened beaconing horizon, Tiny topology) and
      printed in the paper's layout: Table 1, Figure 5, Figures 6a/6b,
      Figures 7/8/9 (Appendix B).

   2. Bechamel micro-benchmarks — one Test.make per artefact covering
      its computational kernel, plus the crypto and data-structure
      primitives everything rests on, and the ablation comparing the
      baseline and diversity selection rounds.

   Run with:  dune exec bench/main.exe [-- --quick] [-- --out FILE]

   --quick runs a smoke-test subset (taxonomy + SCIONLab regeneration,
   50 ms Bechamel quota) for CI; the full mode regenerates every
   artefact with a 500 ms quota. Either way the measured estimates are
   written as machine-readable JSON (default bench.json). *)

open Bechamel
open Toolkit

let line title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* --- Part 1: regenerate every table and figure -------------------- *)

let bench_beacon =
  {
    Beaconing.default_config with
    Beaconing.duration = 600.0 *. 12.0 (* 2 h horizon keeps bench time sane *);
  }

let regenerate ~quick ~jobs () =
  if quick then begin
    (* Smoke subset: the cheap taxonomy plus the 21-AS testbed run. *)
    line "Table 1 — path management overhead comparison";
    Table1.print (Table1.run ~jobs (Table1.config ~measure:false Exp_common.Tiny));
    line "Figures 7/8/9 — SCIONLab testbed (Appendix B)";
    Scionlab_exp.print (Scionlab_exp.run ~jobs (Scionlab_exp.config ()))
  end
  else begin
    line "Table 1 — path management overhead comparison";
    Table1.print (Table1.run ~jobs (Table1.config Exp_common.Tiny));
    line "Figure 5 — control-plane overhead relative to BGP (bench scale)";
    Fig5.print (Fig5.run ~jobs (Fig5.config ~beacon:bench_beacon Exp_common.Tiny));
    line "Figure 6 — path quality (bench scale)";
    Fig6.print
      (Fig6.run ~jobs
         (Fig6.config ~beacon:bench_beacon ~storage_limits:[ Some 15; Some 60 ]
            Exp_common.Tiny));
    line "Figures 7/8/9 — SCIONLab testbed (Appendix B)";
    Scionlab_exp.print (Scionlab_exp.run ~jobs (Scionlab_exp.config ()))
  end

(* --- Part 2: micro-benchmarks -------------------------------------- *)

let small_core =
  lazy
    (let full = Caida_like.generate { Caida_like.small_params with Caida_like.n = 240 } in
     let core, _ = Caida_like.core_subset full ~k:24 in
     core)

let scionlab = lazy (Scionlab.generate Scionlab.default_params)

let one_kib = String.make 1024 'x'

let keys = lazy (Fwd_keys.create ())

let sample_pcb =
  lazy
    (let p = Pcb.origin_pcb ~origin:0 ~now:0.0 ~lifetime:21600.0 in
     Pcb.extend p ~asn:0 ~ingress:0 ~egress:1 ~link:3 ~peers:[||])

(* A mid-run soak trial on the fig5 small core: the state a pathdyn
   checkpoint serializes. *)
let bench_soak =
  lazy
    (let g = Lazy.force small_core in
     let interval = 600.0 in
     let duration = interval *. 6.0 in
     let cfg =
       {
         Soak.graph = g;
         beacon =
           {
             Beaconing.default_config with
             Beaconing.algorithm = Beacon_policy.Baseline;
             Beaconing.storage_limit = 20;
             Beaconing.duration = duration;
           };
         plan =
           Fault_plan.plan ~seed:42L
             [
               Fault_plan.Stochastic
                 { mtbf = 7200.0; mttr = 600.0; start = interval; until = duration };
             ];
         pairs = Array.init 4 (fun i -> (i, i + 8));
         register_top = 3;
         metric_labels = [ ("cell", "bench") ];
       }
     in
     let t = Soak.create cfg in
     Soak.advance t ~upto:6;
     (cfg, t))

let bench_soak_trial = lazy (snd (Lazy.force bench_soak))

let bench_soak_bytes =
  lazy
    (let cfg, t = Lazy.force bench_soak in
     (cfg, Soak.encode t))

(* Traffic-engine kernels on the SCIONLab testbed graph: offered
   paths straight from the control plane, a Zipf demand over them. *)
let bench_traffic =
  lazy
    (let g = Lazy.force scionlab in
     let beacon scope =
       {
         Beaconing.default_config with
         Beaconing.scope;
         Beaconing.duration = 600.0 *. 8.0;
         Beaconing.lifetime = 600.0 *. 12.0;
       }
     in
     let core = Beaconing.run g (beacon Beaconing.Core_beaconing) in
     let intra = Beaconing.run g (beacon Beaconing.Intra_isd) in
     let cs = Control_service.build ~core ~intra () in
     let demand =
       Demand.create g
         {
           Demand.default_params with
           Demand.n_pairs = 24;
           flows = 400;
           horizon_s = 60.0;
           seed = 17L;
         }
     in
     let paths =
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
     in
     let cfg =
       {
         Traffic_sim.graph = g;
         paths;
         latency_ms = Geo.latency_table g;
         demand;
         strategy = Strategy.Load_adaptive;
         width = 2;
         plan = Fault_plan.plan [];
         capacity_scale = 0.01;
         slot_s = 1.0;
         slots = 120;
         adapt_margin = 1.25;
         metric_labels = [ ("cell", "bench") ];
       }
     in
     (g, cfg, paths))

let beaconing_run g algorithm rounds =
  let cfg =
    {
      Beaconing.default_config with
      Beaconing.algorithm;
      Beaconing.duration = 600.0 *. float_of_int rounds;
    }
  in
  Beaconing.run g cfg

let tests =
  [
    (* Substrate primitives. *)
    Test.make ~name:"crypto/sha256-1KiB" (Staged.stage (fun () -> Sha256.digest one_kib));
    Test.make ~name:"crypto/hop-field-mac"
      (Staged.stage (fun () ->
           Segment.hop_mac (Lazy.force keys) ~as_idx:7 ~if1:2 ~if2:5 ~expiry:21600.0));
    Test.make ~name:"core/pcb-extend"
      (Staged.stage (fun () ->
           Pcb.extend (Lazy.force sample_pcb) ~asn:1 ~ingress:2 ~egress:3 ~link:9
             ~peers:[||]));
    Test.make ~name:"core/beacon-store-insert"
      (Staged.stage (fun () ->
           let s = Beacon_store.create ~limit:60 in
           ignore (Beacon_store.insert s ~now:0.0 (Lazy.force sample_pcb))));
    (* A full limit-60 slot: one rejected newcomer (longer than every
       entry) and one evicting newcomer (newer than the oldest entry).
       61 paths are inserted round-robin with rising timestamps, so the
       slot always holds the 60 newest and the next one evicts; the
       ring is refilled once its timestamps run out. *)
    Test.make ~name:"core/beacon-store-insert-full"
      (Staged.stage
         (let pcb ~ts links =
            Array.fold_left
              (fun p l -> Pcb.extend p ~asn:l ~ingress:1 ~egress:2 ~link:l ~peers:[||])
              (Pcb.origin_pcb ~origin:0 ~now:ts ~lifetime:1e9)
              links
          in
          let ring =
            Array.init (64 * 61) (fun i ->
                let j = 3 * (i mod 61) in
                pcb ~ts:(float_of_int i) [| j; j + 1; j + 2 |])
          in
          let now = float_of_int (Array.length ring) in
          let rejected = pcb ~ts:0.0 [| 500; 501; 502; 503 |] in
          let fill () =
            let s = Beacon_store.create ~limit:60 in
            for i = 0 to 59 do
              ignore (Beacon_store.insert s ~now ring.(i))
            done;
            s
          in
          let s = ref (fill ()) and next = ref 60 in
          fun () ->
            if !next = Array.length ring then begin
              s := fill ();
              next := 60
            end;
            ignore (Beacon_store.insert !s ~now rejected);
            ignore (Beacon_store.insert !s ~now ring.(!next));
            incr next));
    Test.make ~name:"core/diversity-score"
      (Staged.stage
         (let st = Diversity_state.create ~n_as:64 in
          Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 1; 2; 3 |] ~extra:4;
          let p = Beacon_policy.default_div_params in
          fun () ->
            let gm =
              Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links:[| 1; 2; 3 |]
                ~extra:4
            in
            Beacon_policy.score_fresh p
              ~ds:(Beacon_policy.diversity_of_gm p gm)
              ~age:600.0 ~lifetime:21600.0));
    (* Table 1: the taxonomy itself is cheap; bench the grounding
       component, a path-server lookup round. *)
    Test.make ~name:"table1/path-server-lookup"
      (Staged.stage
         (let ps = Path_server.create () in
          fun () -> Path_server.lookup_down ps ~now:1.0 ~leaf:42));
    (* Figure 5 kernels: one BGP routing table; one baseline beaconing
       round and one diversity round on the same small core (the
       ablation the overhead comparison rests on). *)
    Test.make ~name:"fig5/bgp-routing-table"
      (Staged.stage (fun () -> Bgp_routes.compute (Lazy.force small_core) ~dst:0));
    Test.make ~name:"fig5/beaconing-baseline-3rounds"
      (Staged.stage (fun () ->
           beaconing_run (Lazy.force small_core) Beacon_policy.Baseline 3));
    Test.make ~name:"fig5/beaconing-diversity-3rounds"
      (Staged.stage (fun () ->
           beaconing_run (Lazy.force small_core)
             (Beacon_policy.Diversity Beacon_policy.default_div_params)
             3));
    (* Figure 6 kernel: a max-flow path-quality query. *)
    Test.make ~name:"fig6/maxflow-optimum"
      (Staged.stage (fun () ->
           Path_quality.optimum (Lazy.force small_core) ~src:0 ~dst:7));
    (* Figures 7-9 kernel: a full SCIONLab beaconing horizon. *)
    Test.make ~name:"fig7-9/scionlab-baseline-12rounds"
      (Staged.stage (fun () ->
           beaconing_run (Lazy.force scionlab) Beacon_policy.Baseline 12));
    (* Resilience kernels: compiling a day of stochastic faults for the
       small core, and the beacon-store purge scan a revocation triggers. *)
    Test.make ~name:"faults/plan-compile-day"
      (Staged.stage
         (let plan =
            Fault_plan.plan ~seed:42L
              [
                Fault_plan.Stochastic
                  { mtbf = 7200.0; mttr = 900.0; start = 0.0; until = 86400.0 };
              ]
          in
          fun () -> Fault_plan.compile ~graph:(Lazy.force small_core) plan));
    Test.make ~name:"faults/store-drop-link-scan"
      (Staged.stage
         (let s = Beacon_store.create ~limit:128 in
          let p = Pcb.origin_pcb ~origin:0 ~now:0.0 ~lifetime:21600.0 in
          for i = 1 to 100 do
            ignore
              (Beacon_store.insert s ~now:0.0
                 (Pcb.extend p ~asn:0 ~ingress:0 ~egress:1 ~link:i ~peers:[||]))
          done;
          fun () -> Beacon_store.drop_link s ~link:0));
    (* Supervision kernels: the per-checkpoint cost of the pathdyn soak
       (snapshot encode/decode and the invariant gate, at the fig5
       small-core scale) and the per-round watchdog / supervised-map
       overhead every supervised experiment pays. *)
    Test.make ~name:"supervise/soak-encode-small-core"
      (Staged.stage
         (let t = Lazy.force bench_soak_trial in
          fun () -> Soak.encode t));
    Test.make ~name:"supervise/soak-decode-small-core"
      (Staged.stage
         (let cfg, bytes = Lazy.force bench_soak_bytes in
          fun () -> Soak.restore cfg bytes));
    Test.make ~name:"supervise/invariants-check"
      (Staged.stage
         (let ctx = Soak.invariant_ctx (Lazy.force bench_soak_trial) in
          fun () -> Invariants.check_all ctx));
    Test.make ~name:"supervise/watchdog-check"
      (Staged.stage
         (let wd = Watchdog.start ~label:"bench" (Some 3600.0) in
          fun () -> Watchdog.check wd));
    Test.make ~name:"supervise/map-16-noop-jobs"
      (Staged.stage
         (let input = Array.init 16 (fun i -> i) in
          fun () ->
            Supervise.map ~jobs:1 ~base_seed:1L
              (fun ~obs:_ ~seed:_ ~watchdog:_ i -> i)
              input));
    (* Traffic-engine kernels: one strategy decision over a real
       offered set, the per-(de)admission link-load update, and the
       full flow-scheduling loop (admission, selection, fluid
       progress) over a 120-slot workload. *)
    Test.make ~name:"traffic/strategy-select"
      (Staged.stage
         (let g, _, paths = Lazy.force bench_traffic in
          let ctx =
            { Strategy.latency_ms = Geo.latency_table g;
              load = Link_load.create ~capacity_scale:0.01 g }
          in
          let offered =
            Array.fold_left
              (fun best o -> if Array.length o > Array.length best then o else best)
              [||] paths
          in
          fun () -> Strategy.select Strategy.Load_adaptive ctx ~width:3 offered));
    Test.make ~name:"traffic/link-load-update"
      (Staged.stage
         (let g, _, paths = Lazy.force bench_traffic in
          let load = Link_load.create ~capacity_scale:0.01 g in
          let links =
            (Array.fold_left
               (fun best o -> if Array.length o > Array.length best then o else best)
               [||] paths).(0)
              .Fwd_path.links
          in
          fun () ->
            Link_load.add_path load links;
            ignore (Link_load.fair_share load links);
            Link_load.remove_path load links));
    Test.make ~name:"traffic/sim-120-slots"
      (Staged.stage
         (let _, cfg, _ = Lazy.force bench_traffic in
          fun () ->
            let t = Traffic_sim.create cfg in
            Traffic_sim.advance t ~upto:(Traffic_sim.slots_total t);
            Traffic_sim.finish t));
    (* Ablations: the design choices called out in DESIGN.md. *)
    Test.make ~name:"ablation/diversity-arith-mean-3rounds"
      (Staged.stage (fun () ->
           beaconing_run (Lazy.force small_core)
             (Beacon_policy.Diversity
                { Beacon_policy.default_div_params with
                  Beacon_policy.mean_kind = Beacon_policy.Arithmetic })
             3));
    Test.make ~name:"ablation/gm-link-counters"
      (Staged.stage
         (let st = Diversity_state.create ~n_as:64 in
          Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 1; 2; 3; 4; 5 |]
            ~extra:6;
          fun () ->
            Diversity_state.counters_gm st ~origin:1 ~neighbor:2
              ~links:[| 1; 2; 3; 4; 5 |] ~extra:6));
  ]

let run_benchmarks ~quick () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if quick then Time.millisecond 50.0 else Time.second 0.5 in
  let limit = if quick then 200 else 2000 in
  let cfg = Benchmark.cfg ~limit ~quota ~kde:(Some 1000) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"scion" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> est
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  line "Micro-benchmarks (monotonic clock, OLS estimate per run)";
  Table.print
    ~header:[ "benchmark"; "time/run" ]
    ~rows:
      (List.map
         (fun (name, ns) ->
           let pretty =
             if Float.is_nan ns then "n/a"
             else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
             else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; pretty ])
         rows);
  rows

(* Machine-readable results, one object per benchmark with the OLS
   nanoseconds-per-run estimate. Consumed by CI trend tracking. *)
let write_json ~file ~quick ~elapsed_s rows =
  let result (name, ns) =
    Obs_json.Obj
      [ ("name", Obs_json.String name); ("ns_per_run", Obs_json.Float ns) ]
  in
  let doc =
    Obs_json.Obj
      [
        ("schema", Obs_json.String "scion-bench/1");
        ("quick", Obs_json.Bool quick);
        ("elapsed_s", Obs_json.Float elapsed_s);
        ("results", Obs_json.List (List.map result rows));
      ]
  in
  let oc = open_out file in
  output_string oc (Obs_json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" file

let () =
  let quick = ref false in
  let out = ref "bench.json" in
  let jobs = ref 1 in
  let spec =
    [
      ("--quick", Arg.Set quick, " smoke mode: reduced regeneration, 50 ms quota");
      ("--out", Arg.Set_string out, "FILE JSON results file (default bench.json)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N regenerate with N domains (0 = one per core; results are identical)" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--quick] [--jobs N] [--out FILE]";
  let jobs = if !jobs = 0 then Runner.default_jobs () else !jobs in
  let t0 = Unix.gettimeofday () in
  regenerate ~quick:!quick ~jobs ();
  let rows = run_benchmarks ~quick:!quick () in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  write_json ~file:!out ~quick:!quick ~elapsed_s rows;
  Printf.printf "\n[bench completed in %.1f s]\n" elapsed_s
