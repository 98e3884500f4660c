type algo_result = {
  name : string;
  stretch : float array;
  mean_stretch : float;
  p95_stretch : float;
  overhead_bytes : float;
}

type result = {
  scale : Exp_common.scale;
  pairs : (int * int) array;
  algos : algo_result list;
}

type config = {
  scale : Exp_common.scale;
  seed : int64 option;
  beacon : Beaconing.config;
}

let config ?seed ?(beacon = Exp_common.beacon_config) scale = { scale; seed; beacon }

let name = "latency"

let doc = "Latency-aware path construction (§4.2 extension)"

let evaluate name core weights pairs (outcome : Beaconing.outcome) =
  let now = outcome.Beaconing.config.Beaconing.duration -. 1.0 in
  let stretch =
    Array.map
      (fun (s, d) ->
        let opt = Latency_paths.best_latency core ~weights ~src:s ~dst:d in
        let got =
          Latency_paths.stored_best_latency ~weights
            (Beacon_store.paths outcome.Beaconing.stores.(s) ~now ~origin:d)
        in
        if Float.is_finite opt && opt > 0.0 then got /. opt else nan)
      pairs
  in
  let finite = Array.of_list (List.filter Float.is_finite (Array.to_list stretch)) in
  {
    name;
    stretch;
    mean_stretch = Stats.mean finite;
    p95_stretch = (if Array.length finite = 0 then nan else Stats.quantile finite 0.95);
    overhead_bytes = outcome.Beaconing.stats.Beaconing.total_bytes;
  }

let run ?(obs = Obs.disabled) ?(jobs = 1) { scale; seed; beacon } =
  let prepared = Exp_common.prepare ?seed scale in
  let core = prepared.Exp_common.core in
  let weights = Geo.latency_table core in
  let d = Exp_common.dimensions scale in
  let pairs =
    Exp_common.sample_pairs core ~count:d.Exp_common.sample_pairs ~seed:0x1A7E9CL
  in
  (* Scale chosen so a typical diameter-length path scores mid-range. *)
  let lat_scale = 4.0 *. Stats.mean weights *. 8.0 in
  (* One independent stage per algorithm: beaconing plus the stretch
     evaluation against the Dijkstra optimum. *)
  let stages =
    [|
      ("SCION Baseline (60)", "latency.beaconing.baseline", beacon);
      ( "SCION Diversity (60)",
        "latency.beaconing.diversity",
        {
          beacon with
          Beaconing.algorithm = Beacon_policy.Diversity Beacon_policy.default_div_params;
        } );
      ( "SCION Latency-aware (60)",
        "latency.beaconing.latency_aware",
        {
          beacon with
          Beaconing.algorithm =
            Beacon_policy.Latency_aware
              {
                Beacon_policy.base = Beacon_policy.default_div_params;
                link_latency_ms = weights;
                latency_scale_ms = lat_scale;
              };
        } );
    |]
  in
  let algos =
    Runner.map_jobs_obs ~obs ~jobs
      (fun ~obs (algo_name, phase, cfg) ->
        let out = Obs.phase obs phase (fun () -> Beaconing.run ~obs core cfg) in
        evaluate algo_name core weights pairs out)
      stages
  in
  { scale; pairs; algos = Array.to_list algos }

let to_json (r : result) =
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("scale", Obs_json.String (Exp_common.scale_to_string r.scale));
      ("pairs", Obs_json.Int (Array.length r.pairs));
      ( "algos",
        Obs_json.List
          (List.map
             (fun a ->
               Obs_json.Obj
                 [
                   ("name", Obs_json.String a.name);
                   ("mean_stretch", Obs_json.Float a.mean_stretch);
                   ("p95_stretch", Obs_json.Float a.p95_stretch);
                   ("overhead_bytes", Obs_json.Float a.overhead_bytes);
                 ])
             r.algos) );
    ]

let print (r : result) =
  Printf.printf
    "Latency-aware path construction (§4.2 extension) — scale=%s, %d AS pairs\n\n"
    (Exp_common.scale_to_string r.scale)
    (Array.length r.pairs);
  Table.print
    ~header:[ "Algorithm"; "mean stretch"; "p95 stretch"; "control-plane bytes" ]
    ~rows:
      (List.map
         (fun a ->
           [
             a.name;
             Printf.sprintf "%.3f" a.mean_stretch;
             Printf.sprintf "%.3f" a.p95_stretch;
             Printf.sprintf "%.3g" a.overhead_bytes;
           ])
         r.algos);
  print_newline ();
  print_endline
    "Stretch = lowest-latency disseminated path / latency-optimal path (Dijkstra).\n\
     The latency-aware variant trades some link diversity for latency, using the\n\
     same Eq. 1-3 dissemination machinery — the extensibility §4.2 argues for."
