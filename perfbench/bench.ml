(* Benchmark runner: runs one workload for a time budget and prints one
   JSON result line (see README.md for the metrics and workloads).

     bench.exe run --workload W --seed N --seconds S --trace 0|1
     bench.exe metrics            # the per-layer metric names and units
     bench.exe micro [--inflate]  # ROADMAP item 1 micro-kernel re-timing *)

let setup_reps = 5

(* Machine-speed reference. On a shared virtual machine the CPU
   alternates, for seconds to minutes at a time, between speeds up to
   1.6x apart (CPU time equals wall time at every speed), so raw wall
   times of two sets of runs disagreed by more than any usable bound.
   Every timed set-up and iteration is therefore paired with a run of
   this fixed kernel just before it (and, for an iteration, just after),
   and reported as wall time x [ref_nominal_s] / reference time: seconds
   on a machine where the kernel takes [ref_nominal_s]. The kernel is the
   benchmark's own code, so a change to the libraries cannot move it; it
   allocates, hashes and sorts like the set-up does, and slowed by about
   the same factor as the set-up in the machine's slow spells. *)
let reference () =
  let n = 20_000 in
  let h = Hashtbl.create 1024 in
  let rng = Random.State.make [| 42 |] in
  let xs =
    Array.init n (fun i ->
        let k = Random.State.int rng 1_000_000 in
        Hashtbl.replace h k i;
        (k, float_of_int i))
  in
  Array.sort compare xs;
  let acc = ref 0 in
  Array.iter
    (fun (k, _) -> match Hashtbl.find_opt h k with Some v -> acc := !acc + v | None -> ())
    xs;
  let l = List.init n (fun i -> [| i; i + 1 |]) in
  ignore (Sys.opaque_identity (List.length l + !acc))

(* The kernel's time at the fast speed of the 2-vCPU Intel Xeon
   container the benchmark was built on (OCaml 5.1.1). *)
let ref_nominal_s = 0.0144

type workload = {
  name : string;
  golden : string;  (** output digest at seed 0 *)
  setup : Work.ctx -> Work.seeds -> Work.ctx -> string;
      (** builds the inputs, returning one measured iteration *)
}

let workloads =
  [
    {
      name = "fig5-overhead";
      golden = Goldens.fig5;
      setup =
        (fun c s ->
          let inp = Work.fig5_setup c s in
          fun c -> snd (Work.fig5_run c inp));
    };
    {
      name = "pathdyn-soak";
      golden = Goldens.soak;
      setup =
        (fun c s ->
          let inp = Work.soak_setup c s in
          fun c -> snd (Work.soak_run c inp));
    };
    {
      name = "traffic-congested";
      golden = Goldens.traffic;
      setup =
        (fun c s ->
          let inp = Work.traffic_setup c s in
          fun c -> snd (Work.traffic_run c inp));
    };
  ]

(* --- per-layer metrics from the traced iterations ---------------------- *)

let beacon_runs = [ "baseline"; "diversity"; "intra" ]

let cells = [ "greedy"; "adaptive" ]

(* Span-name prefix -> library whose self time it counts toward. *)
let layer_of name =
  let prefixes =
    [
      ("bgp.", "bgp");
      ("beaconing.", "core");
      ("soak.", "supervise");
      ("snapshot.", "supervise");
      ("invariants.", "supervise");
      ("checkpoint.", "supervise");
      ("supervise.", "supervise");
      ("segments.", "segments");
      ("traffic.", "traffic");
    ]
  in
  match
    List.find_opt (fun (p, _) -> String.starts_with ~prefix:p name) prefixes
  with
  | Some (_, l) -> l
  | None -> "bench"

let layers = [ "bgp"; "core"; "supervise"; "segments"; "traffic"; "bench" ]

(* (name, unit) of every per-layer metric, in output order. A layer a
   workload does not exercise reports 0. *)
let per_layer_names =
  let beacon r =
    let k s = Printf.sprintf "beaconing.%s.%s" r s in
    [
      (k "busy_s", "s");
      (k "round_s.p50", "s");
      (k "round_s.max", "s");
      (k "round_s.n", "count");
      (k "select_s", "s");
      (k "deliver_s", "s");
      (k "pcbs_sent", "count");
      (k "bytes_sent", "B");
      (k "pcbs_stored", "count");
      (k "stored_per_sent", "ratio");
      (k "alloc_mw", "Mword");
    ]
  in
  let cell n =
    let k s = Printf.sprintf "traffic.%s.%s" n s in
    [
      (k "busy_s", "s");
      (k "slot_ms.p50", "ms");
      (k "slot_ms.p99", "ms");
      (k "slot_ms.n", "count");
      (k "flows_completed", "count");
      (k "completion_share", "ratio");
      (k "path_switches", "count");
      (k "alloc_mw", "Mword");
    ]
  in
  [ ("topology.generate_s", "s"); ("topology.derive_s", "s"); ("bgp.overhead_s", "s") ]
  @ List.concat_map beacon beacon_runs
  @ [
      ("beaconing.soak.busy_s", "s");
      ("beaconing.soak.pcbs_sent", "count");
      ("beaconing.soak.bytes_sent", "B");
      ("beaconing.soak.pcbs_stored", "count");
      ("beaconing.soak.stored_per_sent", "ratio");
      ("beaconing.soak.alloc_mw", "Mword");
      ("beaconing.soak.us_per_pcb", "us");
      ("soak.round_s.p50", "s");
      ("soak.round_s.max", "s");
      ("soak.round_s.n", "count");
      ("snapshot.encode_s", "s");
      ("snapshot.restore_s", "s");
      ("snapshot.bytes", "B");
      ("invariants.check_s", "s");
      ("checkpoint.save_s", "s");
      ("supervise.overhead_s", "s");
      ("faults.link_failures", "count");
      ("faults.pcbs_dropped", "count");
      ("faults.segments_revoked", "count");
      ("segments.build_s", "s");
      ("segments.resolve_s", "s");
      ("segments.resolve_us.p50", "us");
      ("segments.resolve_us.p90", "us");
      ("segments.resolve_us.n", "count");
      ("segments.paths_offered", "count");
      ("segments.resolvable_share", "ratio");
      ("traffic.demand_s", "s");
    ]
  @ List.concat_map cell cells
  @ [ ("traffic.flows_per_s", "1/s") ]
  @ List.map (fun l -> (Printf.sprintf "layer.%s.self_s" l, "s")) layers
  @ [
      ("trace.run_s", "s");
      ("trace.untraced_run_s", "s");
      ("trace.overhead_s", "s");
      ("trace.overhead_share", "ratio");
      ("trace.spans", "count");
      ("checks.fail_share", "ratio");
      ("machine.ref_ms", "ms");
    ]

let pct xs q = if Array.length xs = 0 then 0.0 else Stats.quantile xs q

let max_of xs = Array.fold_left Float.max 0.0 xs

(* Per-layer values. Times are per traced iteration: span totals divided
   by [iters]. Percentiles pool every traced iteration's spans. *)
let per_layer (c : Work.ctx) ~iters ~traced_run_s ~untraced_run_s ~fail_share ~ref_ms =
  let totals = Span.totals c.Work.sp in
  let fi = float_of_int iters in
  let total n = match Hashtbl.find_opt totals n with Some (t, _, _) -> t /. fi | None -> 0.0 in
  let self n = match Hashtbl.find_opt totals n with Some (_, s, _) -> s /. fi | None -> 0.0 in
  let count = Work.get c in
  let durs = Span.durations c.Work.sp in
  let v = Hashtbl.create 128 in
  let set k x = Hashtbl.replace v k x in
  List.iter
    (fun (k, n) -> set k (total n))
    [
      ("bgp.overhead_s", "bgp.overhead");
      ("beaconing.soak.busy_s", "soak.round");
      ("snapshot.encode_s", "snapshot.encode");
      ("snapshot.restore_s", "snapshot.restore");
      ("invariants.check_s", "invariants.check");
      ("checkpoint.save_s", "checkpoint.save");
      ("segments.build_s", "segments.build");
      ("segments.resolve_s", "segments.resolve");
      ("traffic.demand_s", "traffic.demand");
    ];
  (* Set-up spans are per set-up, not per iteration. *)
  let per_setup n =
    match Hashtbl.find_opt totals n with Some (t, _, k) -> t /. float_of_int k | None -> 0.0
  in
  set "topology.generate_s" (per_setup "topology.generate");
  set "topology.derive_s" (per_setup "topology.derive");
  set "supervise.overhead_s" (self "supervise.map");
  List.iter
    (fun r ->
      let k s = Printf.sprintf "beaconing.%s.%s" r s in
      let rounds = durs (k "round") in
      let busy = total ("beaconing." ^ r) in
      let select = count (k "select_s") in
      set (k "busy_s") busy;
      set (k "round_s.p50") (pct rounds 0.5);
      set (k "round_s.max") (max_of rounds);
      set (k "round_s.n") (float_of_int (Array.length rounds));
      set (k "select_s") select;
      set (k "deliver_s") (if busy > 0.0 then busy -. select else 0.0);
      List.iter (fun s -> set (k s) (count (k s))) [ "pcbs_sent"; "bytes_sent"; "pcbs_stored"; "alloc_mw" ])
    beacon_runs;
  List.iter
    (fun s -> set ("beaconing.soak." ^ s) (count ("beaconing.soak." ^ s)))
    [ "pcbs_sent"; "bytes_sent"; "pcbs_stored"; "alloc_mw" ];
  List.iter
    (fun r ->
      let k s = Printf.sprintf "beaconing.%s.%s" r s in
      let sent = Hashtbl.find v (k "pcbs_sent") in
      set (k "stored_per_sent")
        (if sent > 0.0 then Hashtbl.find v (k "pcbs_stored") /. sent else 0.0))
    ("soak" :: beacon_runs);
  let soak_sent = Hashtbl.find v "beaconing.soak.pcbs_sent" in
  set "beaconing.soak.us_per_pcb"
    (if soak_sent > 0.0 then 1e6 *. Hashtbl.find v "beaconing.soak.busy_s" /. soak_sent else 0.0);
  let rounds = durs "soak.round" in
  set "soak.round_s.p50" (pct rounds 0.5);
  set "soak.round_s.max" (max_of rounds);
  set "soak.round_s.n" (float_of_int (Array.length rounds));
  let resolves = Array.map (fun d -> d *. 1e6) (durs "segments.resolve") in
  set "segments.resolve_us.p50" (pct resolves 0.5);
  set "segments.resolve_us.p90" (pct resolves 0.9);
  set "segments.resolve_us.n" (float_of_int (Array.length resolves));
  List.iter
    (fun s -> set s (count s))
    [
      "snapshot.bytes";
      "faults.link_failures";
      "faults.pcbs_dropped";
      "faults.segments_revoked";
      "segments.paths_offered";
      "segments.resolvable_share";
    ];
  List.iter
    (fun n ->
      let k s = Printf.sprintf "traffic.%s.%s" n s in
      let slots = Array.map (fun d -> d *. 1e3) (durs (k "slot")) in
      set (k "busy_s") (total (k "slot"));
      set (k "slot_ms.p50") (pct slots 0.5);
      set (k "slot_ms.p99") (pct slots 0.99);
      set (k "slot_ms.n") (float_of_int (Array.length slots));
      List.iter
        (fun s -> set (k s) (count (k s)))
        [ "flows_completed"; "completion_share"; "path_switches"; "alloc_mw" ])
    cells;
  set "traffic.flows_per_s" (count "flows_completed" /. traced_run_s);
  let by_layer = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name (_, s, _) ->
      if not (String.starts_with ~prefix:"topology." name) then begin
        let l = layer_of name in
        Hashtbl.replace by_layer l (s +. Option.value (Hashtbl.find_opt by_layer l) ~default:0.0)
      end)
    totals;
  List.iter
    (fun l ->
      set (Printf.sprintf "layer.%s.self_s" l)
        (Option.value (Hashtbl.find_opt by_layer l) ~default:0.0 /. fi))
    layers;
  set "trace.run_s" traced_run_s;
  set "trace.untraced_run_s" untraced_run_s;
  set "trace.overhead_s" (traced_run_s -. untraced_run_s);
  set "trace.overhead_share" ((traced_run_s -. untraced_run_s) /. untraced_run_s);
  set "trace.spans" (float_of_int (Array.length (Span.spans c.Work.sp)));
  set "checks.fail_share" fail_share;
  set "machine.ref_ms" ref_ms;
  List.map (fun (k, unit) -> (k, Hashtbl.find v k, unit)) per_layer_names

(* --- output ------------------------------------------------------------ *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (k, x, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_float x) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

(* --- the measured run ---------------------------------------------------- *)

let now = Unix.gettimeofday

let run ~w ~seed ~seconds ~trace ~work_dir ~spans_out =
  let s = Work.seeds seed in
  let plain = Work.ctx ~trace:false ~work_dir in
  let traced = Work.ctx ~trace:true ~work_dir in
  (* Set-up is timed [setup_reps] times before every iteration, so that
     work moved into set-up shows. Spreading the set-ups over the whole
     run samples the machine's speed as often as the iterations do. One
     untimed warm-up first grows the heap, so the timed set-ups do not
     pay for page faults. *)
  ignore (w.setup plain s : Work.ctx -> string);
  reference ();
  let timed f =
    let t0 = now () in
    let x = f () in
    (x, now () -. t0)
  in
  let ref_times = ref [] in
  let timed_ref () =
    let (), r = timed reference in
    ref_times := r :: !ref_times;
    r
  in
  (* (wall, normalised) time of every timed set-up *)
  let setup_times = ref [] in
  let timed_setup () =
    let r = timed_ref () in
    let it, t = timed (fun () -> w.setup (if trace then traced else plain) s) in
    setup_times := (t, t *. ref_nominal_s /. r) :: !setup_times;
    it
  in
  let iteration = timed_setup () in
  let first_digest = ref None in
  (* One measured iteration: wall time, normalised time and words
     allocated. The reference runs on a compacted heap on both sides. *)
  let one (c : Work.ctx) =
    Gc.compact ();
    for _ = 1 to setup_reps do
      ignore (timed_setup () : Work.ctx -> string)
    done;
    Gc.compact ();
    let r0 = timed_ref () in
    Hashtbl.reset c.Work.counts;
    let w0 = Work.words () in
    let t0 = now () in
    let digest =
      try Some (Span.with_ c.Work.sp "run" (fun () -> iteration c))
      with e ->
        Work.check c ("exception " ^ Printexc.to_string e) false;
        None
    in
    let dt = now () -. t0 in
    let alloc = Work.words () -. w0 in
    Gc.compact ();
    let r1 = timed_ref () in
    (match digest with
    | None -> ()
    | Some d ->
        if s.Work.relabel = None then Work.check c ("golden " ^ w.name ^ " = " ^ d) (d = w.golden);
        (match !first_digest with
        | None -> first_digest := Some d
        | Some d0 -> Work.check c "same outputs on every iteration" (d = d0)));
    (dt, dt *. ref_nominal_s /. ((r0 +. r1) /. 2.0), alloc)
  in
  let t_start = now () in
  (* The first iteration grows the heap and runs slower than the rest. A
     traced run compares its traced iterations with the untraced ones, so
     that first iteration is run untimed there. *)
  if trace then ignore (one plain : float * float * float);
  let plain_runs = ref [] and traced_runs = ref [] in
  let rec loop k =
    let c = if trace && k mod 2 = 1 then traced else plain in
    let r = one c in
    if c == traced then traced_runs := r :: !traced_runs else plain_runs := r :: !plain_runs;
    let elapsed = now () -. t_start in
    let per_iter = elapsed /. float_of_int (k + 1) in
    if (trace && List.length !traced_runs < 2) || elapsed +. per_iter <= seconds then
      loop (k + 1)
  in
  loop 0;
  let attempted = plain.Work.attempted + traced.Work.attempted in
  let failed = plain.Work.failed + traced.Work.failed in
  let fail_share = float_of_int failed /. float_of_int (max 1 attempted) in
  let median xs = Stats.median (Array.of_list xs) in
  let setup_s = median (List.map snd !setup_times) in
  let ref_ms = 1000.0 *. median !ref_times in
  let times rs = Array.of_list (List.map (fun (t, _, _) -> t) rs) in
  let metrics =
    if not trace then begin
      let word = float_of_int (Sys.word_size / 8) in
      let run_s = median (List.map (fun (_, n, _) -> n) !plain_runs) in
      let alloc_gb = median (List.map (fun (_, _, a) -> a *. word /. 1e9) !plain_runs) in
      let peak_heap_mb =
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word /. 1048576.0
      in
      let pcbs = Work.get plain "pcbs_sent" in
      [
        ("setup_s", setup_s, "s");
        ("run_s", run_s, "s");
        ("pcbs_per_s", pcbs /. run_s, "PCB/s");
        ("alloc_gb", alloc_gb, "GB");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ]
    end
    else begin
      (match spans_out with Some f -> Span.write traced.Work.sp f | None -> ());
      per_layer traced ~iters:(List.length !traced_runs)
        ~traced_run_s:(Stats.mean (times !traced_runs))
        ~untraced_run_s:(Stats.mean (times !plain_runs))
        ~fail_share ~ref_ms
    end
  in
  let show rs = String.concat " " (List.rev_map (fun (t, _, _) -> Printf.sprintf "%.3f" t) rs) in
  Printf.eprintf
    "perfbench: %s seed=%d: setup %.4fs (wall %.4fs); reference %.2f ms; untraced wall [%s]; \
     traced wall [%s]\n%!"
    w.name seed setup_s (median (List.map fst !setup_times)) ref_ms (show !plain_runs)
    (show !traced_runs);
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let work_dir = ref "perfbench/_work" and spans_out = ref "" and inflate = ref false in
  let spec =
    Arg.align
      [
        ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N workload seed (0 = the scenarios' own, with goldens)");
        ("--seconds", Arg.Set_float seconds, "S measuring budget");
        ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
        ("--work-dir", Arg.Set_string work_dir, "DIR checkpoint directory");
        ("--spans", Arg.Set_string spans_out, "FILE write the traced spans here");
        ("--inflate", Arg.Set inflate, " (micro) keep a fig5 heap live before timing");
      ]
  in
  let anon = ref [] in
  Arg.parse spec (fun a -> anon := a :: !anon) "bench.exe (run|metrics|micro) [options]";
  match List.rev !anon with
  | [ "metrics" ] ->
      List.iter (fun (k, u) -> Printf.printf "%s\t%s\n" k u) per_layer_names
  | [ "micro" ] -> Micro.main ~inflate:!inflate
  | [ "run" ] -> (
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | None ->
          Printf.eprintf "unknown workload %S (%s)\n" !workload
            (String.concat ", " (List.map (fun w -> w.name) workloads));
          exit 2
      | Some w ->
          if !seed < 0 then (prerr_endline "seed must be >= 0"; exit 2);
          run ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~work_dir:!work_dir
            ~spans_out:(if !spans_out = "" then None else Some !spans_out))
  | _ ->
      prerr_endline "usage: bench.exe (run|metrics|micro) [options]";
      exit 2
