type algo = { name : string; flows : int array }

type result = {
  pairs : (int * int) array;
  optimum : int array;
  algos : algo list;
  iface_bps : float array;
}

type config = unit

let config () = ()

let name = "scionlab"

let doc = "Appendix B: SCIONLab testbed evaluation (Figures 7-9)"

let all_pairs g =
  let n = Graph.n g in
  let acc = ref [] in
  for s = 0 to n - 1 do
    for d = s + 1 to n - 1 do
      acc := (s, d) :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

(* Independent stages: the all-pairs optimum, the baseline(5) run (which
   also yields the measured path set and the Fig. 9 interface rates) and
   one diversity run per storage limit. *)
type stage =
  | S_optimum of int array
  | S_baseline of Beaconing.outcome
  | S_div of algo

let div_limits = [ 5; 10; 15; 60 ]

let run ?(obs = Obs.disabled) ?(jobs = 1) () =
  let g = Scionlab.generate Scionlab.default_params in
  let pairs = all_pairs g in
  let cfg = Exp_common.beacon_config in
  let stages =
    Array.of_list
      ((fun ~obs ->
         S_optimum
           (Obs.phase obs "scionlab.optimum_cuts" (fun () ->
                Array.map (fun (s, d) -> Path_quality.optimum g ~src:s ~dst:d) pairs)))
      :: (fun ~obs ->
           S_baseline
             (Obs.phase obs "scionlab.beaconing.baseline" (fun () ->
                  Beaconing.run ~obs g { cfg with Beaconing.storage_limit = 5 })))
      :: List.map
           (fun limit ~obs ->
             S_div
               (Obs.phase obs "scionlab.beaconing.diversity" (fun () ->
                    let out =
                      Beaconing.run ~obs g
                        {
                          cfg with
                          Beaconing.storage_limit = limit;
                          Beaconing.algorithm =
                            Beacon_policy.Diversity
                              Beacon_policy.default_div_params;
                        }
                    in
                    {
                      name = Printf.sprintf "SCION Diversity (%d)" limit;
                      flows = Path_quality.of_outcome g out pairs;
                    })))
           div_limits)
  in
  let staged = Runner.map_jobs_obs ~obs ~jobs (fun ~obs stage -> stage ~obs) stages in
  let optimum =
    match staged.(0) with S_optimum o -> o | _ -> assert false
  in
  let baseline5 =
    match staged.(1) with S_baseline b -> b | _ -> assert false
  in
  let divs =
    Array.to_list staged
    |> List.filter_map (function S_div a -> Some a | _ -> None)
  in
  let baseline_flows = Path_quality.of_outcome g baseline5 pairs in
  let algos =
    { name = "Measurement"; flows = baseline_flows }
    :: { name = "SCION Baseline (5)"; flows = baseline_flows }
    :: divs
  in
  let iface_bps =
    Array.map
      (fun b -> b /. baseline5.Beaconing.config.Beaconing.duration)
      (Beaconing.eligible_iface_bytes baseline5)
  in
  if Obs.on obs then begin
    let h = Registry.histogram (Obs.registry obs) "scionlab_iface_bps" in
    Array.iter (Histogram.observe h) iface_bps
  end;
  { pairs; optimum; algos; iface_bps }

let to_json (r : result) =
  let ints a = Obs_json.List (List.map (fun v -> Obs_json.Int v) (Array.to_list a)) in
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("pairs", Obs_json.Int (Array.length r.pairs));
      ("optimum", ints r.optimum);
      ( "algos",
        Obs_json.List
          (List.map
             (fun a ->
               Obs_json.Obj
                 [ ("name", Obs_json.String a.name); ("flows", ints a.flows) ])
             r.algos) );
      ( "iface_bps",
        Obs_json.List
          (List.map (fun v -> Obs_json.Float v) (Array.to_list r.iface_bps)) );
    ]

let print (r : result) =
  Printf.printf "SCIONLab evaluation (Appendix B) — %d core AS pairs\n\n"
    (Array.length r.pairs);
  print_endline
    "Fig. 7/8 — resilience & capacity CDF (fraction of pairs with max-flow <= c):";
  let caps = [ 1; 2; 3; 4; 5; 6 ] in
  let series = List.map (fun a -> a.flows) r.algos @ [ r.optimum ] in
  let header =
    "flow <=" :: List.map (fun a -> a.name) r.algos @ [ "All Paths (optimum)" ]
  in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: List.map
             (fun vs -> Printf.sprintf "%.2f" (Stats.fraction_le vs c))
             series)
      caps
  in
  Table.print ~header ~rows;
  print_newline ();
  (* Fraction of pairs where each diversity variant beats Measurement. *)
  (match List.find_opt (fun a -> a.name = "Measurement") r.algos with
  | None -> ()
  | Some m ->
      print_endline
        "Fraction of pairs where diversity beats the measured path set (paper: 17/42/52/55% for 5/10/15/60):";
      List.iter
        (fun a ->
          if a.name <> "Measurement" && a.name <> "SCION Baseline (5)" then begin
            let better = ref 0 in
            Array.iteri
              (fun i f -> if f > m.flows.(i) then incr better)
              a.flows;
            Printf.printf "  %s: %.0f%%\n" a.name
              (100.0 *. float_of_int !better /. float_of_int (Array.length m.flows))
          end)
        r.algos);
  print_newline ();
  print_endline "Fig. 9 — per-interface core-beaconing bandwidth (Bps), baseline(5):";
  (* Log-bucketed histogram over the per-interface rates: the same
     structure the observability export uses, so the printed quantiles
     match the [scionlab_iface_bps] histogram in --metrics-out. *)
  let h = Histogram.create () in
  Array.iter (Histogram.observe h) r.iface_bps;
  let s = Histogram.summarize h in
  Printf.printf
    "  %d interfaces: mean %.3g  p50 %.3g  p90 %.3g  p99 %.3g  max %.3g Bps\n"
    s.Histogram.count s.Histogram.mean s.Histogram.p50 s.Histogram.p90
    s.Histogram.p99 s.Histogram.max;
  Printf.printf "  interfaces below 4 KB/s: %.0f%% (paper: ~80%%)\n"
    (100.0 *. Histogram.fraction_le h 4096.0)
