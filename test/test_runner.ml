(* Tests for scion_runner: order preservation, nesting,
   exception propagation, seed partitioning, the Obs fork/merge
   reduction, and jobs-independence of whole experiments. *)

let check = Alcotest.check

(* --- map_jobs_obs -------------------------------------------------- *)

let map ~jobs f arr = Runner.map_jobs_obs ~jobs (fun ~obs:_ x -> f x) arr

let test_map_jobs_order () =
  let input = Array.init 100 (fun i -> i) in
  let expect = Array.map (fun i -> i * i) input in
  List.iter
    (fun jobs ->
      check
        (Alcotest.array Alcotest.int)
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (map ~jobs (fun i -> i * i) input))
    [ 1; 2; 4; 9 ]

let test_map_jobs_small_inputs () =
  check (Alcotest.array Alcotest.int) "empty" [||]
    (map ~jobs:4 (fun i -> i) [||]);
  check (Alcotest.array Alcotest.int) "singleton" [| 7 |]
    (map ~jobs:4 (fun i -> i + 4) [| 3 |])

let test_exception_propagation () =
  (* Two jobs fail; the one with the smallest input index wins, no
     matter which finishes first, and every other job still runs. *)
  let ran = Array.init 8 (fun _ -> Atomic.make false) in
  match
    map ~jobs:3
      (fun i ->
        if i = 1 || i = 4 then failwith (Printf.sprintf "boom%d" i);
        Atomic.set ran.(i) true;
        i)
      (Array.init 8 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Runner.Job_failed { index; exn = Failure msg; _ } ->
      check Alcotest.int "smallest failing index" 1 index;
      check Alcotest.string "original exception" "boom1" msg;
      Array.iteri
        (fun i r ->
          if i <> 1 && i <> 4 then
            Alcotest.(check bool)
              (Printf.sprintf "job %d ran" i)
              true (Atomic.get r))
        ran
  | exception e -> raise e

let test_failure_carries_context () =
  (* Job_failed records the failing index, the original exception and
     the backtrace captured where the job ran, on both paths. *)
  Printexc.record_backtrace true;
  List.iter
    (fun jobs ->
      match
        map ~jobs
          (fun i -> if i = 2 then failwith "kaboom" else i)
          (Array.init 4 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Job_failed"
      | exception Runner.Job_failed { index; backtrace; exn = Failure msg } ->
          check Alcotest.int "failing index" 2 index;
          check Alcotest.string "original exception" "kaboom" msg;
          Alcotest.(check bool) "backtrace captured" true
            (String.length backtrace > 0))
    [ 1; 2 ]

let test_nested_map () =
  (* A job may itself fan out: the inner map spawns its own domains, so
     nesting cannot deadlock. *)
  check
    (Alcotest.array Alcotest.int)
    "sums of the inner maps"
    (Array.init 5 (fun i -> 60 + (4 * i)))
    (map ~jobs:3
       (fun i ->
         Array.fold_left ( + ) 0
           (map ~jobs:2 (fun j -> (j * 10) + i) (Array.init 4 Fun.id)))
       (Array.init 5 (fun i -> i)))

(* --- seed partitioning --------------------------------------------- *)

let test_job_seed () =
  check Alcotest.int64 "deterministic" (Runner.job_seed 42L 5) (Runner.job_seed 42L 5);
  let seeds = List.init 16 (Runner.job_seed 42L) in
  check Alcotest.int "distinct across indices" 16
    (List.length (List.sort_uniq Int64.compare seeds));
  Alcotest.(check bool) "distinct across bases" true
    (Runner.job_seed 1L 0 <> Runner.job_seed 2L 0);
  (* Streams seeded from adjacent indices diverge immediately. *)
  let a = Rng.create (Runner.job_seed 7L 0) and b = Rng.create (Runner.job_seed 7L 1) in
  Alcotest.(check bool) "independent streams" true
    (List.init 8 (fun _ -> Rng.int a 1000) <> List.init 8 (fun _ -> Rng.int b 1000))

(* --- Registry / Timer / Obs merge ---------------------------------- *)

let test_registry_merge () =
  let a = Registry.create () and b = Registry.create () in
  Registry.add a "c" 2.0;
  Registry.add b "c" 3.0;
  Registry.add b "c" ~labels:[ ("k", "v") ] 7.0;
  Histogram.observe (Registry.histogram a "h") 1.0;
  Histogram.observe (Registry.histogram b "h") 2.0;
  Histogram.observe (Registry.histogram b "h") 4.0;
  Registry.merge ~into:a b;
  Alcotest.(check (float 1e-12)) "counters sum" 5.0 !(Registry.counter a "c");
  Alcotest.(check (float 1e-12)) "missing series created" 7.0
    !(Registry.counter a ~labels:[ ("k", "v") ] "c");
  let s = Histogram.summarize (Registry.histogram a "h") in
  check Alcotest.int "histogram counts merge" 3 s.Histogram.count;
  Alcotest.(check (float 1e-12)) "histogram max merges" 4.0 s.Histogram.max;
  (* Kind clash across registries is a programming error. *)
  let c = Registry.create () in
  Histogram.observe (Registry.histogram c "c") 9.0;
  match Registry.merge ~into:a c with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_timer_merge () =
  let a = Timer.create () and b = Timer.create () in
  Timer.time a "x" ignore;
  Timer.time b "x" ignore;
  Timer.time b "y" ignore;
  let ax = Timer.total a "x" and bx = Timer.total b "x" in
  let by = Timer.total b "y" in
  Timer.merge ~into:a b;
  Alcotest.(check (float 1e-12)) "totals sum" (ax +. bx) (Timer.total a "x");
  Alcotest.(check (float 1e-12)) "missing name created" by (Timer.total a "y");
  match List.assoc_opt "x" (List.map (fun (n, _, c) -> (n, c)) (Timer.report a)) with
  | Some count -> check Alcotest.int "counts sum" 2 count
  | None -> Alcotest.fail "x missing from report"

let test_obs_fork_merge () =
  Alcotest.(check bool) "fork of disabled stays disabled" false
    (Obs.on (Obs.fork Obs.disabled));
  let parent = Obs.create () in
  let child = Obs.fork parent in
  Alcotest.(check bool) "fork of enabled is enabled" true (Obs.on child);
  Registry.add (Obs.registry parent) "m" 1.0;
  Registry.add (Obs.registry child) "m" 2.0;
  Obs.phase child "p" (fun () -> ());
  Obs.merge ~into:parent child;
  Alcotest.(check (float 1e-12)) "counter merged" 3.0
    !(Registry.counter (Obs.registry parent) "m");
  Alcotest.(check bool) "phase timer merged" true
    (List.exists (fun (n, _, _) -> n = "p") (Timer.report (Obs.timers parent)))

let test_map_jobs_obs_totals () =
  let totals jobs =
    let obs = Obs.create () in
    let out =
      Runner.map_jobs_obs ~obs ~jobs
        (fun ~obs i ->
          if Obs.on obs then begin
            Registry.add (Obs.registry obs) "runner_test_total" 1.0;
            Histogram.observe
              (Registry.histogram (Obs.registry obs) "runner_test_value")
              (float_of_int i)
          end;
          i)
        (Array.init 8 (fun i -> i))
    in
    check (Alcotest.array Alcotest.int) "results in order" (Array.init 8 (fun i -> i)) out;
    ( !(Registry.counter (Obs.registry obs) "runner_test_total"),
      (Histogram.summarize (Registry.histogram (Obs.registry obs) "runner_test_value"))
        .Histogram.count )
  in
  let c1, n1 = totals 1 and c4, n4 = totals 4 in
  Alcotest.(check (float 0.0)) "counter total matches sequential" c1 c4;
  Alcotest.(check (float 0.0)) "every job counted" 8.0 c4;
  check Alcotest.int "histogram count matches sequential" n1 n4

let test_map_jobs_obs_trace () =
  (* Forked children share the parent's tracer, so events emitted inside
     jobs on other domains reach its (domain-safe) sink. *)
  let lock = Mutex.create () and seen = ref [] in
  let sink e =
    Mutex.protect lock (fun () -> seen := e.Trace.message :: !seen)
  in
  let trace = Trace.create ~sink:(Trace.Custom sink) Trace.Info in
  let obs = Obs.create ~trace () in
  ignore
    (Runner.map_jobs_obs ~obs ~jobs:2
       (fun ~obs i ->
         Trace.emit (Obs.trace obs) Trace.Info ~time:0.0 ~category:"job"
           (string_of_int i))
       (Array.init 6 Fun.id));
  check
    (Alcotest.list Alcotest.string)
    "one event per job"
    (List.init 6 string_of_int)
    (List.sort compare !seen)

(* --- whole experiments are jobs-independent ------------------------ *)

let short_beacon =
  { Exp_common.beacon_config with Beaconing.duration = 600.0 *. 4.0 }

let fig6_cfg =
  lazy (Fig6.config ~beacon:short_beacon ~storage_limits:[ Some 15 ] Exp_common.Tiny)

let test_fig6_determinism () =
  let cfg = Lazy.force fig6_cfg in
  let r1 = Fig6.run ~jobs:1 cfg in
  let r4 = Fig6.run ~jobs:4 cfg in
  check (Alcotest.array Alcotest.int) "optimum" r1.Fig6.optimum r4.Fig6.optimum;
  check Alcotest.int "same algos" (List.length r1.Fig6.algos) (List.length r4.Fig6.algos);
  List.iter2
    (fun (a : Fig6.algo) (b : Fig6.algo) ->
      check Alcotest.string "algo name" a.Fig6.name b.Fig6.name;
      check (Alcotest.array Alcotest.int) a.Fig6.name a.Fig6.flows b.Fig6.flows)
    r1.Fig6.algos r4.Fig6.algos

(* The --metrics-out document of a run under [jobs] domains. *)
let metrics_json ~jobs run =
  let obs = Obs.create () in
  run ~obs ~jobs;
  Test_obs.metrics_document obs

let test_fig6_merged_registry () =
  (* Every job records into its own fork, merged in input order at any
     [jobs]: the whole document is identical, floats included. *)
  let json jobs =
    metrics_json ~jobs (fun ~obs ~jobs ->
        ignore (Fig6.run ~obs ~jobs (Lazy.force fig6_cfg)))
  in
  let j1 = json 1 in
  Alcotest.(check bool) "some metrics recorded" true
    (j1 <> metrics_json ~jobs:1 (fun ~obs:_ ~jobs:_ -> ()));
  check Alcotest.string "metrics document" j1 (json 4)

let test_convergence_metrics () =
  (* Two Bgp_sim runs per trial share the des_* series: each samples
     its queue depth on its own event count. *)
  let json jobs =
    metrics_json ~jobs (fun ~obs ~jobs ->
        ignore
          (Convergence.run ~obs ~jobs
             (Convergence.config ~n_failures:2 Exp_common.Tiny)))
  in
  check Alcotest.string "metrics document" (json 1) (json 3)

let test_convergence_determinism () =
  let cfg = Convergence.config ~n_failures:2 Exp_common.Tiny in
  let r1 = Convergence.run ~jobs:1 cfg in
  let r3 = Convergence.run ~jobs:3 cfg in
  Alcotest.(check bool) "identical trial stats" true (r1 = r3);
  check Alcotest.int "requested failures" 2 (List.length r1.Convergence.samples)

let suite =
  [
    ("map_jobs order", `Quick, test_map_jobs_order);
    ("map_jobs small inputs", `Quick, test_map_jobs_small_inputs);
    ("exception propagation", `Quick, test_exception_propagation);
    ("failure carries context", `Quick, test_failure_carries_context);
    ("nested map", `Quick, test_nested_map);
    ("job seeds", `Quick, test_job_seed);
    ("registry merge", `Quick, test_registry_merge);
    ("timer merge", `Quick, test_timer_merge);
    ("obs fork/merge", `Quick, test_obs_fork_merge);
    ("map_jobs_obs totals", `Quick, test_map_jobs_obs_totals);
    ("map_jobs_obs trace reaches sink", `Quick, test_map_jobs_obs_trace);
    ("fig6 jobs-independent", `Slow, test_fig6_determinism);
    ("fig6 merged registry", `Slow, test_fig6_merged_registry);
    ("convergence jobs-independent", `Slow, test_convergence_determinism);
    ("convergence metrics jobs-independent", `Slow, test_convergence_metrics);
  ]
