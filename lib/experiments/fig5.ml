type series = {
  name : string;
  ratios : float array;
  summary : Stats.five_number;
}

type result = {
  scale : Exp_common.scale;
  bgp_bytes : float array;
  series : series list;
  core_ases : int;
  full_ases : int;
  isd_ases : int;
}

type config = {
  scale : Exp_common.scale;
  seed : int64 option;
  beacon : Beaconing.config;
}

let config ?seed ?(beacon = Exp_common.beacon_config) scale =
  { scale; seed; beacon }

let name = "fig5"

let doc = "Figure 5: control-plane overhead relative to BGP"

(* Per-interface monthly bytes, the quantity comparable to a monitor's
   single BGP session (one full feed = one interface). *)
let monthly_scion_bytes outcome monitors =
  let g = outcome.Beaconing.graph in
  let per_as = Beaconing.received_bytes_by_as outcome in
  let factor = Exp_common.months_factor outcome.Beaconing.config in
  List.map
    (fun m -> per_as.(m) *. factor /. float_of_int (max 1 (Graph.link_degree g m)))
    monitors
  |> Array.of_list

let make_series name ~bgp values =
  let ratios = Array.mapi (fun i v -> v /. max 1.0 bgp.(i)) values in
  { name; ratios; summary = Stats.five_number ratios }

(* The four heavy stages are independent: BGP/BGPsec accounting on the
   full topology and three beaconing simulations on two further
   graphs. They fan out as one parallel job each. *)
type stage = S_bgp of Bgp_overhead.result | S_beacon of Beaconing.outcome

let run ?(obs = Obs.disabled) ?(jobs = 1) { scale; seed; beacon } =
  let prepared =
    Obs.phase obs "fig5.prepare" (fun () -> Exp_common.prepare ?seed scale)
  in
  let full = prepared.Exp_common.full in
  let core = prepared.Exp_common.core in
  let isd = prepared.Exp_common.isd in
  (* BGP + BGPsec at the monitors over one month. The prefix load is
     calibrated so prefixes-per-core-origin matches the real Internet
     of §5.1 (~800k prefixes / 2000 core ASes = 400), keeping the
     BGP-vs-beaconing ratio meaningful at sub-Internet scales. *)
  let prefix_mean =
    min 400.0 (400.0 *. float_of_int (Graph.n core) /. float_of_int (Graph.n full))
  in
  let workload = Bgp_overhead.make_workload ~prefix_mean full ~seed:0xB6FL in
  let beaconing phase g cfg ~obs =
    S_beacon (Obs.phase obs phase (fun () -> Beaconing.run ~obs g cfg))
  in
  let core_beaconing v = beaconing (Variant.phase name v) core (Variant.config beacon v) in
  let baseline = Variant.baseline (Some 60) in
  let stages =
    [|
      (fun ~obs ->
        S_bgp
          (Obs.phase obs "fig5.bgp_overhead" (fun () ->
               Bgp_overhead.monthly_overhead full workload
                 ~monitors:prepared.Exp_common.monitors_full
                 Bgp_overhead.default_params)));
      core_beaconing baseline;
      core_beaconing (Variant.diversity (Some 60));
      (* Intra-ISD beaconing (baseline, as in the paper). *)
      beaconing "fig5.beaconing.intra_isd" isd
        (Variant.config { beacon with Beaconing.scope = Beaconing.Intra_isd } baseline);
    |]
  in
  let bgp, base_out, div_out, intra_out =
    match Runner.map_jobs_obs ~obs ~jobs (fun ~obs stage -> stage ~obs) stages with
    | [| S_bgp bgp; S_beacon base; S_beacon div; S_beacon intra |] ->
        (bgp, base, div, intra)
    | _ -> assert false
  in
  let bgp_bytes = bgp.Bgp_overhead.bgp_bytes in
  let monitors_core = prepared.Exp_common.monitors_core in
  let base_bytes = monthly_scion_bytes base_out monitors_core in
  let div_bytes = monthly_scion_bytes div_out monitors_core in
  (* The intra-ISD per-AS samples are rank-paired with the monitors:
     i-th highest-degree ISD member against the i-th monitor. *)
  let isd_samples =
    Bgp_overhead.top_degree_monitors isd
      ~count:(List.length prepared.Exp_common.monitors_full)
  in
  let intra_bytes = monthly_scion_bytes intra_out isd_samples in
  let series =
    [
      make_series "BGPsec" ~bgp:bgp_bytes bgp.Bgp_overhead.bgpsec_bytes;
      make_series "SCION core beaconing (baseline)" ~bgp:bgp_bytes base_bytes;
      make_series "SCION core beaconing (diversity)" ~bgp:bgp_bytes div_bytes;
      make_series "SCION intra-ISD beaconing (baseline)" ~bgp:bgp_bytes intra_bytes;
    ]
  in
  if Obs.on obs then begin
    (* Per-monitor overhead ratios as one histogram per series, so the
       exported JSON carries the Fig. 5 distributions (p50/p90/p99). *)
    let reg = Obs.registry obs in
    List.iter
      (fun s ->
        let h =
          Registry.histogram reg ~labels:[ ("series", s.name) ] "fig5_overhead_ratio"
        in
        Array.iter (fun r -> if r > 0.0 then Histogram.observe h r) s.ratios)
      series
  end;
  {
    scale;
    bgp_bytes;
    series;
    core_ases = Graph.n core;
    full_ases = Graph.n full;
    isd_ases = Graph.n isd;
  }

let to_json (r : result) =
  let floats a = Obs_json.List (List.map (fun v -> Obs_json.Float v) (Array.to_list a)) in
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("scale", Obs_json.String (Exp_common.scale_to_string r.scale));
      ("full_ases", Obs_json.Int r.full_ases);
      ("core_ases", Obs_json.Int r.core_ases);
      ("isd_ases", Obs_json.Int r.isd_ases);
      ("bgp_monthly_bytes", floats r.bgp_bytes);
      ( "series",
        Obs_json.List
          (List.map
             (fun s ->
               Obs_json.Obj
                 [
                   ("name", Obs_json.String s.name);
                   ("min", Obs_json.Float s.summary.Stats.min);
                   ("p25", Obs_json.Float s.summary.Stats.p25);
                   ("median", Obs_json.Float s.summary.Stats.median);
                   ("p75", Obs_json.Float s.summary.Stats.p75);
                   ("max", Obs_json.Float s.summary.Stats.max);
                   ("ratios", floats s.ratios);
                 ])
             r.series) );
    ]

let print (r : result) =
  Printf.printf
    "Figure 5 — monthly control-plane overhead relative to BGP (scale=%s)\n"
    (Exp_common.scale_to_string r.scale);
  Printf.printf
    "topologies: %d ASes full (BGP/BGPsec), %d core ASes (SCION core), %d ASes in the ISD\n"
    r.full_ases r.core_ases r.isd_ases;
  Printf.printf "BGP monthly bytes per monitor: %s\n\n" (Stats.summary r.bgp_bytes);
  let fmt v = Printf.sprintf "%.3g" v in
  Table.print
    ~header:[ "Protocol"; "min"; "p25"; "median"; "p75"; "max" ]
    ~rows:
      (( [ "BGP (reference)"; "1"; "1"; "1"; "1"; "1" ] )
      :: List.map
           (fun s ->
             [
               s.name;
               fmt s.summary.Stats.min;
               fmt s.summary.Stats.p25;
               fmt s.summary.Stats.median;
               fmt s.summary.Stats.p75;
               fmt s.summary.Stats.max;
             ])
           r.series);
  print_newline ();
  let median name =
    match List.find_opt (fun s -> s.name = name) r.series with
    | Some s -> s.summary.Stats.median
    | None -> nan
  in
  let bgpsec = median "BGPsec" in
  let base = median "SCION core beaconing (baseline)" in
  let div = median "SCION core beaconing (diversity)" in
  let intra = median "SCION intra-ISD beaconing (baseline)" in
  Printf.printf "Headline checks (paper Fig. 5, §5.2):\n";
  Printf.printf
    "  BGPsec vs BGP:              %8.2fx   (paper: ~1 order of magnitude above)\n"
    bgpsec;
  Printf.printf
    "  baseline vs BGPsec:         %8.2fx   (paper: slightly higher)\n"
    (base /. bgpsec);
  Printf.printf
    "  baseline vs diversity:      %8.1fx   (paper: >2 orders of magnitude)\n"
    (base /. div);
  Printf.printf
    "  diversity vs BGP:           %8.3fx   (paper: ~1 order of magnitude below)\n"
    div;
  Printf.printf
    "  intra-ISD vs BGP:           %8.4fx   (paper: ~2 orders of magnitude below)\n"
    intra
