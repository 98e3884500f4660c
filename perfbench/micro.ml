(* Re-times the three micro-kernels whose committed figures rose 10-20x
   between results/BENCH_pr3.json and results/BENCH_pr9.json, with the
   kernel bodies and Bechamel settings of bench/main.ml's quick mode,
   but in a fresh process where no other fixture has been forced.
   [--inflate] first leaves a large live heap behind (the beacon stores
   of a fig5-size baseline run), to test whether heap size alone moves
   the figures. A plain batch timer is reported next to the Bechamel
   OLS estimate as a cross-check. *)

open Bechamel
open Toolkit

let sample_pcb =
  lazy
    (let p = Pcb.origin_pcb ~origin:0 ~now:0.0 ~lifetime:21600.0 in
     Pcb.extend p ~asn:0 ~ingress:0 ~egress:1 ~link:3 ~peers:[||])

let one_kib = String.make 1024 'x'

let kernels () =
  let st = Diversity_state.create ~n_as:64 in
  Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 1; 2; 3 |] ~extra:4;
  let p = Beacon_policy.default_div_params in
  [
    ("crypto/sha256-1KiB", fun () -> ignore (Sys.opaque_identity (Sha256.digest one_kib)));
    ( "core/pcb-extend",
      fun () ->
        ignore
          (Sys.opaque_identity
             (Pcb.extend (Lazy.force sample_pcb) ~asn:1 ~ingress:2 ~egress:3 ~link:9
                ~peers:[||])) );
    ( "core/beacon-store-insert",
      fun () ->
        let s = Beacon_store.create ~limit:60 in
        ignore (Beacon_store.insert s ~now:0.0 (Lazy.force sample_pcb)) );
    ( "core/diversity-score",
      fun () ->
        let gm =
          Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links:[| 1; 2; 3 |] ~extra:4
        in
        ignore
          (Sys.opaque_identity
             (Beacon_policy.score_fresh p
                ~ds:(Beacon_policy.diversity_of_gm p gm)
                ~age:600.0 ~lifetime:21600.0)) );
  ]

let bechamel_ns name f =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.millisecond 50.0) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (Test.make ~name (Staged.stage f)) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ r acc -> r :: acc) results [] with
  | r :: _ -> (
      match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan)
  | [] -> nan

(* Median over 15 batches of ns per call, each batch 20k calls. *)
let batch_ns f =
  let batch = 20_000 in
  let samples =
    Array.init 15 (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to batch do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch)
  in
  Stats.median samples

let main ~inflate =
  let live =
    if inflate then begin
      let c = Work.ctx ~trace:false ~work_dir:"." in
      let inp = Work.fig5_setup c (Work.seeds 0) in
      Some (Work.beacon_run c "baseline" inp.Work.prep.Exp_common.core (Work.fig5_beacon ~rounds:2))
    end
    else None
  in
  let heap_mb = float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8.0 /. 1048576.0 in
  Printf.printf "# heap %.1f MB live%s\n" heap_mb (if inflate then " (inflated)" else "");
  Printf.printf "%-28s %12s %12s\n" "kernel" "bechamel_ns" "batch_ns";
  List.iter
    (fun (name, f) ->
      let b = bechamel_ns name f in
      let m = batch_ns f in
      Printf.printf "%-28s %12.1f %12.1f\n%!" name b m)
    (kernels ());
  ignore (Sys.opaque_identity live)
