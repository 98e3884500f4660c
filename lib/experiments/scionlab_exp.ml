type result = {
  pairs : (int * int) array;
  optimum : int array;
  algos : Quality_sweep.column list;
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

let run ?(obs = Obs.disabled) ?(jobs = 1) () =
  let g = Scionlab.generate Scionlab.default_params in
  let pairs = all_pairs g in
  let { Quality_sweep.optimum; columns } =
    Quality_sweep.run ~obs ~jobs ~scenario:name g Exp_common.beacon_config pairs
      (List.map
         (fun v -> Quality_sweep.Scion v)
         (Variant.baseline (Some 5)
         :: List.map (fun l -> Variant.diversity (Some l)) [ 5; 10; 15; 60 ]))
  in
  (* The testbed's measured path set is modelled by the baseline (5),
     which also gives the Fig. 9 interface rates. *)
  let baseline5 = List.hd columns in
  let iface_bps = baseline5.iface_bps in
  if Obs.on obs then begin
    let h = Registry.histogram (Obs.registry obs) "scionlab_iface_bps" in
    Array.iter (Histogram.observe h) iface_bps
  end;
  {
    pairs;
    optimum;
    algos = { baseline5 with name = "Measurement" } :: columns;
    iface_bps;
  }

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
             (fun (a : Quality_sweep.column) ->
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
  Quality_sweep.print_cdf ~label:"flow <=" ~caps:[ 1; 2; 3; 4; 5; 6 ]
    ~optimum:r.optimum r.algos;
  print_newline ();
  (* Fraction of pairs where each diversity variant beats Measurement. *)
  print_endline
    "Fraction of pairs where diversity beats the measured path set (paper: 17/42/52/55% for 5/10/15/60):";
  let measured = (List.hd r.algos).flows in
  List.iter
    (fun (a : Quality_sweep.column) ->
      match a.source with
      | Scion { algorithm = Beacon_policy.Diversity _; _ } ->
          let better = ref 0 in
          Array.iteri (fun i f -> if f > measured.(i) then incr better) a.flows;
          Printf.printf "  %s: %.0f%%\n" a.name
            (100.0 *. float_of_int !better /. float_of_int (Array.length measured))
      | Scion _ | Bgp -> ())
    r.algos;
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
