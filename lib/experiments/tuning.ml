type objective = {
  params : Beacon_policy.div_params;
  overhead_bytes : float;
  capacity_fraction : float;
  connectivity : float;
  score : float;
}

let evaluate ?(obs = Obs.disabled) ?(duration_rounds = 24) ?(lifetime_rounds = 12) g params =
  let cfg =
    {
      Exp_common.beacon_config with
      Beaconing.algorithm = Beacon_policy.Diversity params;
      Beaconing.duration = 600.0 *. float_of_int duration_rounds;
      Beaconing.lifetime = 600.0 *. float_of_int lifetime_rounds;
    }
  in
  let out = Beaconing.run ~obs g cfg in
  let now = cfg.Beaconing.duration -. 1.0 in
  let n = Graph.n g in
  (* Connectivity: every AS should hold a valid path to every origin. *)
  let have = ref 0 and want = ref 0 in
  for v = 0 to n - 1 do
    for o = 0 to n - 1 do
      if o <> v then begin
        incr want;
        if Beacon_store.paths out.Beaconing.stores.(v) ~now ~origin:o <> [] then incr have
      end
    done
  done;
  let connectivity = float_of_int !have /. float_of_int (max 1 !want) in
  (* Capacity fraction over a fixed sample of pairs. *)
  let pairs = Exp_common.sample_pairs g ~count:40 ~seed:0x7E57L in
  let num = ref 0.0 and den = ref 0.0 in
  Array.iter
    (fun (s, d) ->
      let opt = Path_quality.optimum g ~src:s ~dst:d in
      if opt > 0 then begin
        let pcbs = Beacon_store.paths out.Beaconing.stores.(s) ~now ~origin:d in
        let f = Path_quality.of_pcbs g pcbs ~src:s ~dst:d in
        num := !num +. float_of_int f;
        den := !den +. float_of_int opt
      end)
    pairs;
  let capacity_fraction = if !den = 0.0 then 0.0 else !num /. !den in
  let overhead_bytes = out.Beaconing.stats.Beaconing.total_bytes in
  (* Composite: §4.2's objectives. Losing connectivity is
     disqualifying; otherwise trade path quality against bandwidth. *)
  let score =
    if connectivity < 0.999 then connectivity -. 10.0
    else capacity_fraction -. (0.08 *. log10 (max 1.0 overhead_bytes))
  in
  { params; overhead_bytes; capacity_fraction; connectivity; score }

let candidates_stage1 =
  let base = Beacon_policy.default_div_params in
  List.concat_map
    (fun alpha ->
      List.concat_map
        (fun beta ->
          List.concat_map
            (fun gamma ->
              List.map
                (fun threshold ->
                  { base with Beacon_policy.alpha; beta; gamma; threshold })
                [ 0.05; 0.15; 0.45 ])
            [ 2.0; 4.0; 8.0 ])
        [ 1.0; 2.0; 4.0 ])
    [ 5.0; 20.0; 80.0 ]

let refine (p : Beacon_policy.div_params) =
  List.concat_map
    (fun alpha ->
      List.concat_map
        (fun beta ->
          List.concat_map
            (fun gamma ->
              List.map
                (fun threshold ->
                  { p with Beacon_policy.alpha; beta; gamma; threshold })
                [ p.Beacon_policy.threshold *. 0.7; p.Beacon_policy.threshold; p.Beacon_policy.threshold *. 1.3 ])
            [ p.Beacon_policy.gamma -. 1.0; p.Beacon_policy.gamma; p.Beacon_policy.gamma +. 1.0 ])
        [ p.Beacon_policy.beta *. 0.75; p.Beacon_policy.beta; p.Beacon_policy.beta *. 1.25 ])
    [ p.Beacon_policy.alpha *. 0.5; p.Beacon_policy.alpha; p.Beacon_policy.alpha *. 1.5 ]

let best_of ?(obs = Obs.disabled) ?(jobs = 1) g cands =
  (* Candidate evaluations are independent; fan them out, then pick the
     winner after the barrier so the choice is identical at any [jobs]
     value. The earliest candidate wins ties, as in the sequential
     fold. *)
  let objectives =
    Runner.map_jobs_obs ~obs ~jobs
      (fun ~obs p -> evaluate ~obs g p)
      (Array.of_list cands)
  in
  Array.fold_left
    (fun acc o ->
      match acc with
      | Some best when best.score >= o.score -> Some best
      | _ -> Some o)
    None objectives

(* Exponential stage, then a linear refinement around its winner. *)
let grid_search ?obs ?jobs g =
  let stage1 =
    match best_of ?obs ?jobs g candidates_stage1 with
    | Some o -> o
    | None -> invalid_arg "Tuning.grid_search: empty candidate set"
  in
  match best_of ?obs ?jobs g (refine stage1.params) with
  | Some o when o.score > stage1.score -> o
  | _ -> stage1

type config = unit

let config () = ()

let name = "tune"

let doc = "Grid search for diversity parameters (§4.2)"

(* Core ASes of the tuning topology. *)
let cores = 30

type result = { cores : int; best : objective }

let run ?obs ?jobs () =
  let full =
    Caida_like.generate { Caida_like.small_params with Caida_like.n = cores * 8 }
  in
  let core, _ = Caida_like.core_subset full ~k:cores in
  { cores; best = grid_search ?obs ?jobs core }

let to_json (r : result) =
  let p = r.best.params in
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("cores", Obs_json.Int r.cores);
      ( "params",
        Obs_json.Obj
          [
            ("alpha", Obs_json.Float p.Beacon_policy.alpha);
            ("beta", Obs_json.Float p.Beacon_policy.beta);
            ("gamma", Obs_json.Float p.Beacon_policy.gamma);
            ("threshold", Obs_json.Float p.Beacon_policy.threshold);
            ("gm_max", Obs_json.Float p.Beacon_policy.gm_max);
          ] );
      ("connectivity", Obs_json.Float r.best.connectivity);
      ("capacity_fraction", Obs_json.Float r.best.capacity_fraction);
      ("overhead_bytes", Obs_json.Float r.best.overhead_bytes);
      ("score", Obs_json.Float r.best.score);
    ]

let print (r : result) =
  let p = r.best.params in
  Printf.printf
    "Best parameters: alpha=%.1f beta=%.2f gamma=%.1f threshold=%.3f gm_max=%.1f\n"
    p.Beacon_policy.alpha p.Beacon_policy.beta p.Beacon_policy.gamma
    p.Beacon_policy.threshold p.Beacon_policy.gm_max;
  Printf.printf "connectivity=%.3f capacity=%.3f overhead=%.3g bytes score=%.3f\n"
    r.best.connectivity r.best.capacity_fraction r.best.overhead_bytes r.best.score
