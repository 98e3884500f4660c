type profile =
  | P_flapping of { period_s : float; down_fraction : float; n_links : int }
  | P_stochastic of { mtbf_s : float; mttr_s : float }

type cell_result = {
  profile : profile;
  limit : int;
  availability_mean : float;
  availability_min : float;
  jaccard_mean : float;
  lifetime : Histogram.summary;
  survivors : int;
  link_failures : int;
  link_repairs : int;
  pcbs_dropped : int;
  segments_revoked : int;
  lookups : int;
  registrations : int;
  total_pcbs : int;
  total_bytes : float;
}

type result = {
  scale : Exp_common.scale;
  rounds : int;
  pairs : int;
  failures_allowed : int;
  cells : cell_result list;
  report : Run_report.t;
}

type config = {
  scale : Exp_common.scale;
  seed : int64;
  rounds : int;  (** soak horizon in beaconing rounds *)
  chunk : int;  (** rounds per supervised work unit *)
  profiles : profile list;
  limits : int list;  (** PCB storage limits swept *)
  sup : Supervise.cli;
}

(* Segments re-registered per pair per round. *)
let register_top = 3

let default_profiles =
  [
    P_flapping { period_s = 3600.0; down_fraction = 0.25; n_links = 3 };
    P_stochastic { mtbf_s = 43200.0; mttr_s = 1800.0 };
  ]

let config ?(seed = 0xFA17L) ?(rounds = 24) ?(chunk = 4)
    ?(profiles = default_profiles) ?(limits = [ 5; 20 ])
    ?(sup = Supervise.default_cli) scale =
  { scale; seed; rounds; chunk; profiles; limits; sup }

let name = "pathdyn"

let doc =
  "Long-horizon path-dynamics soak under link churn (checkpointable, supervised)"

let profile_kind = function
  | P_flapping _ -> "flapping"
  | P_stochastic _ -> "stochastic"

let profile_name = function
  | P_flapping f ->
      Printf.sprintf "flapping %gs/%.0f%%/%d" f.period_s
        (f.down_fraction *. 100.0)
        f.n_links
  | P_stochastic s -> Printf.sprintf "mtbf %gs mttr %gs" s.mtbf_s s.mttr_s

(* Distinct flapping sites, drawn deterministically from the plan seed. *)
let pick_links rng ~num ~count =
  let count = min count num in
  let chosen = ref [] in
  while List.length !chosen < count do
    let l = Rng.int rng num in
    if not (List.mem l !chosen) then chosen := l :: !chosen
  done;
  List.rev !chosen

let plan_of_profile ~graph ~interval ~duration ~seed = function
  | P_stochastic { mtbf_s; mttr_s } ->
      Fault_plan.plan ~seed
        [
          Fault_plan.Stochastic
            { mtbf = mtbf_s; mttr = mttr_s; start = interval; until = duration };
        ]
  | P_flapping { period_s; down_fraction; n_links } ->
      let rng = Rng.create seed in
      let links = pick_links rng ~num:(Graph.num_links graph) ~count:n_links in
      Fault_plan.plan ~seed
        (List.map
           (fun link ->
             Fault_plan.Flapping
               { link; at = interval; period = period_s; down_fraction; until = duration })
           links)

type cell = {
  profile : profile;
  limit : int;
  label : string;
  soak : Soak.config;
}

(* One soak trial per (profile, limit) cell, profile-major; cell [i]'s
   fault plan is seeded with [Runner.job_seed seed i]. Also returns the
   tracked pairs. *)
let build_cells cfg =
  let core = (Exp_common.prepare cfg.scale).Exp_common.core in
  let pairs =
    Exp_common.sample_pairs core
      ~count:(Exp_common.dimensions cfg.scale).Exp_common.sample_pairs
      ~seed:0xFA12L
  in
  let beacon = Exp_common.beacon_config in
  let interval = beacon.Beaconing.interval in
  let duration = float_of_int cfg.rounds *. interval in
  List.concat_map (fun p -> List.map (fun l -> (p, l)) cfg.limits) cfg.profiles
  |> List.mapi (fun i (profile, limit) ->
         let plan =
           plan_of_profile ~graph:core ~interval ~duration
             ~seed:(Runner.job_seed cfg.seed i) profile
         in
         {
           profile;
           limit;
           label = Printf.sprintf "%s/L%d/t0" (profile_kind profile) limit;
           soak =
             {
               Soak.graph = core;
               beacon =
                 {
                   beacon with
                   Beaconing.algorithm = Beacon_policy.Baseline;
                   Beaconing.storage_limit = limit;
                   Beaconing.duration;
                 };
               plan;
               pairs;
               register_top;
               metric_labels =
                 [
                   ("profile", profile_kind profile);
                   ("limit", string_of_int limit);
                 ];
             };
         })
  |> fun cells -> (pairs, Array.of_list cells)

let soak_configs cfg = Array.map (fun c -> c.soak) (snd (build_cells cfg))

(* --- execution --------------------------------------------------------- *)

(* A failed cell (listed in the run report) keeps zeros; its empty
   lifetime histogram is still merged into [obs], so the metric series
   exist for every cell. *)
let cell_result ~obs cell state =
  let reg =
    match state with Ok t -> Soak.registry t | Error _ -> Registry.create ()
  in
  let lifetime =
    Histogram.summarize
      (Registry.histogram reg ~labels:cell.soak.Soak.metric_labels
         Soak.lifetime_metric)
  in
  if Obs.on obs then Registry.merge ~into:(Obs.registry obs) reg;
  match state with
  | Error _ ->
      {
        profile = cell.profile;
        limit = cell.limit;
        availability_mean = 0.0;
        availability_min = 0.0;
        jaccard_mean = 0.0;
        lifetime;
        survivors = 0;
        link_failures = 0;
        link_repairs = 0;
        pcbs_dropped = 0;
        segments_revoked = 0;
        lookups = 0;
        registrations = 0;
        total_pcbs = 0;
        total_bytes = 0.0;
      }
  | Ok t ->
      let r = Soak.report t in
      let ps = r.Soak.ps_stats in
      {
        profile = cell.profile;
        limit = cell.limit;
        availability_mean = r.Soak.availability_mean;
        availability_min = r.Soak.availability_min;
        jaccard_mean = r.Soak.jaccard_overall;
        lifetime;
        survivors = r.Soak.survivors;
        link_failures = r.Soak.link_failures;
        link_repairs = r.Soak.link_repairs;
        pcbs_dropped = r.Soak.pcbs_dropped;
        segments_revoked = r.Soak.segments_revoked;
        lookups = ps.Path_server.lookups_core + ps.Path_server.lookups_down;
        registrations = ps.Path_server.registrations;
        total_pcbs = r.Soak.total_pcbs;
        total_bytes = r.Soak.total_bytes;
      }

let run ?(obs = Obs.disabled) ?(jobs = 1) cfg =
  if cfg.rounds <= 0 then invalid_arg "Pathdyn.run: rounds <= 0";
  if cfg.chunk <= 0 then invalid_arg "Pathdyn.run: chunk <= 0";
  let pairs, cells =
    Obs.phase obs "pathdyn.prepare" (fun () -> build_cells cfg)
  in
  (* Every cell's full soak configuration plus the chunking: a
     checkpoint from a different scale / seed / horizon is rejected. *)
  let fingerprint =
    Printf.sprintf "pathdyn/%d/%d;" cfg.rounds cfg.chunk
    ^ String.concat ""
        (Array.to_list (Array.map (fun c -> Soak.config_key c.soak) cells))
  in
  let states, report =
    Obs.phase obs "pathdyn.cells" (fun () ->
        Supervise.run_cells ~cli:cfg.sup ~jobs ~seed:cfg.seed
          ~horizon:cfg.rounds ~chunk:cfg.chunk
          {
            Supervise.name;
            fingerprint;
            labels = Array.map (fun c -> c.label) cells;
            create = (fun i -> Soak.create cells.(i).soak);
            restore = (fun i -> Soak.restore cells.(i).soak);
            advance = (fun ~watchdog t ~upto -> Soak.advance ~watchdog t ~upto);
            encode = Soak.encode;
            check = (fun t -> Invariants.check_exn (Soak.invariant_ctx t));
          })
  in
  (* In cell order, so the merges into [obs] are deterministic. *)
  let cell_results =
    Array.to_list (Array.map2 (cell_result ~obs) cells states)
  in
  if Obs.on obs then Run_report.observe obs report;
  {
    scale = cfg.scale;
    rounds = cfg.rounds;
    pairs = Array.length pairs;
    failures_allowed = cfg.sup.Supervise.max_failures;
    cells = cell_results;
    report;
  }

let exit_code r =
  if Run_report.n_failed r.report > r.failures_allowed then 1 else 0

(* --- rendering --------------------------------------------------------- *)

let to_json (r : result) =
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("scale", Obs_json.String (Exp_common.scale_to_string r.scale));
      ("rounds", Obs_json.Int r.rounds);
      ("pairs", Obs_json.Int r.pairs);
      ( "cells",
        Obs_json.List
          (List.map
             (fun (c : cell_result) ->
               Obs_json.Obj
                 [
                   ("profile", Obs_json.String (profile_name c.profile));
                   ("storage_limit", Obs_json.Int c.limit);
                   ("availability_mean", Obs_json.Float c.availability_mean);
                   ("availability_min", Obs_json.Float c.availability_min);
                   ("jaccard_mean", Obs_json.Float c.jaccard_mean);
                   ("lifetimes_completed", Obs_json.Int c.lifetime.Histogram.count);
                   ("lifetime_mean_rounds", Obs_json.Float c.lifetime.Histogram.mean);
                   ("lifetime_p50_rounds", Obs_json.Float c.lifetime.Histogram.p50);
                   ("lifetime_p90_rounds", Obs_json.Float c.lifetime.Histogram.p90);
                   ("survivors", Obs_json.Int c.survivors);
                   ("link_failures", Obs_json.Int c.link_failures);
                   ("link_repairs", Obs_json.Int c.link_repairs);
                   ("pcbs_dropped", Obs_json.Int c.pcbs_dropped);
                   ("segments_revoked", Obs_json.Int c.segments_revoked);
                   ("ps_lookups", Obs_json.Int c.lookups);
                   ("ps_registrations", Obs_json.Int c.registrations);
                   ("total_pcbs", Obs_json.Int c.total_pcbs);
                   ("total_bytes", Obs_json.Float c.total_bytes);
                 ])
             r.cells) );
      ("supervision", Run_report.to_json r.report);
    ]

let print (r : result) =
  Printf.printf
    "Path dynamics — long-horizon soak under link churn (scale=%s, %d rounds, %d \
     tracked pairs)\n\n"
    (Exp_common.scale_to_string r.scale)
    r.rounds r.pairs;
  Table.print
    ~header:
      [
        "fault profile";
        "limit";
        "avail mean";
        "avail min";
        "jaccard";
        "lifetimes";
        "life p50";
        "life p90";
        "alive";
        "down/up";
        "dropped";
        "revoked";
      ]
    ~rows:
      (List.map
         (fun (c : cell_result) ->
           [
             profile_name c.profile;
             string_of_int c.limit;
             Printf.sprintf "%.3f" c.availability_mean;
             Printf.sprintf "%.3f" c.availability_min;
             Printf.sprintf "%.3f" c.jaccard_mean;
             string_of_int c.lifetime.Histogram.count;
             Printf.sprintf "%.1f" c.lifetime.Histogram.p50;
             Printf.sprintf "%.1f" c.lifetime.Histogram.p90;
             string_of_int c.survivors;
             Printf.sprintf "%d/%d" c.link_failures c.link_repairs;
             string_of_int c.pcbs_dropped;
             string_of_int c.segments_revoked;
           ])
         r.cells);
  print_newline ();
  print_endline
    "Availability is the fraction of rounds a pair holds at least one valid path;\n\
     jaccard is the mean consecutive-round path-set similarity (1.0 = fully\n\
     static). Lifetimes count completed path lives in beaconing rounds; storage-\n\
     limited stores lose paths to eviction as well as to revocation, so their\n\
     path sets churn faster at the same fault plan.";
  if Run_report.n_failed r.report > 0 then begin
    print_newline ();
    Format.printf "%a@." Run_report.pp r.report
  end
