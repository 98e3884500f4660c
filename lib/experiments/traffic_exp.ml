type cell_result = {
  label : string;
  strategy : string;
  width : int;
  report : Traffic_sim.report option;  (** [None] when the cell failed *)
}

type result = {
  scale : Exp_common.scale;
  seed : int64;
  flows_total : int;
  pairs : int;
  resolvable_pairs : int;
  outage_link : int option;
  cells : cell_result list;
  swarm : Swarm.comparison option;
  failures_allowed : int;
  report : Run_report.t;
}

type config = {
  scale : Exp_common.scale;
  seed : int64;
  flows : int;  (** demand flows per strategy cell *)
  strategies : Strategy.t list;
  capacity_scale : float;
  swarm_transfers : int;
  sup : Supervise.cli;
}

(* Slot length, simulated drain past the arrival horizon, and slots per
   supervised work unit. *)
let slot_s = 1.0

let drain_s = 600.0

let chunk = 1200

(* Scale presets: the small preset clears 100k total simulated flows
   (3 strategy cells + 3 swarm modes). *)
let default_flows = function
  | Exp_common.Tiny -> 3_000
  | Exp_common.Small -> 34_000
  | Exp_common.Medium -> 60_000
  | Exp_common.Paper -> 120_000

let default_transfers = function
  | Exp_common.Tiny -> 300
  | Exp_common.Small -> 2_000
  | Exp_common.Medium -> 3_000
  | Exp_common.Paper -> 5_000

let config ?(seed = 0x7AF1CL) ?flows ?strategy ?(capacity_scale = 0.2)
    ?swarm_transfers ?(sup = Supervise.default_cli) scale =
  {
    scale;
    seed;
    flows = (match flows with Some f -> f | None -> default_flows scale);
    strategies =
      (match strategy with Some s -> [ s ] | None -> Strategy.all);
    capacity_scale;
    swarm_transfers =
      (match swarm_transfers with
      | Some t -> t
      | None -> default_transfers scale);
    sup;
  }

let name = "traffic"

let doc =
  "Flow-level traffic workloads over control-plane paths (strategy sweep + \
   swarm, checkpointable)"

(* --- setup ------------------------------------------------------------- *)

(* Offered path sets straight from the control plane: core + intra-ISD
   beaconing over the coreified ISD, then per-pair resolution. Capped
   so strategy scoring stays O(1) per flow. *)
let max_offered = 16

let resolve_paths cs pairs =
  Array.map
    (fun (s, d) ->
      let l = Control_service.resolve cs ~src:s ~dst:d in
      let arr = Array.of_list l in
      if Array.length arr > max_offered then Array.sub arr 0 max_offered
      else arr)
    pairs

(* Fail a link on the path the latency-greedy strategy would actually
   prefer (the minimum-latency one) for the most popular resolvable
   pair, preferring a link some alternate path avoids — so the outage
   produces failovers, not just blackouts. *)
let pick_outage_link ~latency_ms paths =
  let path_lat (p : Fwd_path.t) =
    Array.fold_left (fun a l -> a +. latency_ms.(l)) 0.0 p.Fwd_path.links
  in
  let best = ref None in
  Array.iter
    (fun offered ->
      if !best = None && Array.length offered > 0 then begin
        let p0 =
          Array.fold_left
            (fun acc p ->
              if path_lat p < path_lat acc then p else acc)
            offered.(0) offered
        in
        let partial =
          Array.fold_left
            (fun acc l ->
              match acc with
              | Some _ -> acc
              | None ->
                  if
                    Array.exists
                      (fun p -> not (Fwd_path.contains_link p l))
                      offered
                  then Some l
                  else None)
            None p0.Fwd_path.links
        in
        best :=
          (match partial with
          | Some l -> Some l
          | None ->
              if Array.length p0.Fwd_path.links > 0 then
                Some p0.Fwd_path.links.(0)
              else None)
      end)
    paths;
  !best

type task = { label : string; strategy : string; width : int; sim : Traffic_sim.config }

let build_tasks cfg ~graph ~latency_ms ~paths ~swarm_paths ~demand ~swarm_demand
    ~swarm_params ~plan =
  let horizon = (Demand.params demand).Demand.horizon_s in
  let slots =
    int_of_float (Float.ceil ((horizon +. drain_s) /. slot_s)) + 1
  in
  let demand_tasks =
    List.map
      (fun s ->
        {
          label = "demand/" ^ Strategy.name s;
          strategy = Strategy.name s;
          width = 1;
          sim =
            {
              Traffic_sim.graph;
              paths;
              latency_ms;
              demand;
              strategy = s;
              width = 1;
              plan;
              capacity_scale = cfg.capacity_scale;
              slot_s;
              slots;
              adapt_margin = 1.25;
              metric_labels =
                [ ("workload", "demand"); ("strategy", Strategy.name s) ];
            };
        })
      cfg.strategies
  in
  let swarm_tasks =
    List.map
      (fun mode ->
        let sim =
          Swarm.cell_config ~graph ~paths:swarm_paths ~latency_ms
            ~demand:swarm_demand ~capacity_scale:cfg.capacity_scale
            ~slot_s swarm_params mode
        in
        {
          label = "swarm/" ^ Swarm.mode_name mode;
          strategy = Strategy.name sim.Traffic_sim.strategy;
          width = sim.Traffic_sim.width;
          sim;
        })
      Swarm.modes
  in
  Array.of_list (demand_tasks @ swarm_tasks)

(* --- execution ---------------------------------------------------------- *)

let run ?(obs = Obs.disabled) ?(jobs = 1) cfg =
  if cfg.flows < 0 then invalid_arg "Traffic_exp.run: flows < 0";
  if cfg.strategies = [] then invalid_arg "Traffic_exp.run: no strategies";
  let graph =
    Obs.phase obs "traffic.prepare" (fun () ->
        Exp_common.coreify (Exp_common.prepare cfg.scale).Exp_common.isd)
  in
  let _, _, cs =
    Obs.phase obs "traffic.beaconing" (fun () ->
        Exp_common.control_plane ~jobs graph)
  in
  let latency_ms = Geo.latency_table graph in
  let d = Exp_common.dimensions cfg.scale in
  let demand, paths =
    Obs.phase obs "traffic.demand" (fun () ->
        let demand =
          Demand.create graph
            {
              Demand.default_params with
              Demand.n_pairs = d.Exp_common.sample_pairs;
              flows = cfg.flows;
              seed = Runner.job_seed cfg.seed 1;
            }
        in
        (demand, resolve_paths cs (Demand.pairs demand)))
  in
  let swarm_params =
    {
      Swarm.default_params with
      Swarm.transfers = cfg.swarm_transfers;
      seed = Runner.job_seed cfg.seed 2;
    }
  in
  let swarm_demand = Swarm.demand graph swarm_params in
  let swarm_paths = resolve_paths cs (Demand.pairs swarm_demand) in
  let outage_link = pick_outage_link ~latency_ms paths in
  let horizon = (Demand.params demand).Demand.horizon_s in
  let plan =
    Fault_plan.plan ~seed:(Runner.job_seed cfg.seed 3)
      (match outage_link with
      | None -> []
      | Some link ->
          [
            Fault_plan.Link_down
              { link; at = 0.4 *. horizon; duration = 0.2 *. horizon };
          ])
  in
  let tasks =
    build_tasks cfg ~graph ~latency_ms ~paths ~swarm_paths ~demand
      ~swarm_demand ~swarm_params ~plan
  in
  let max_slots =
    Array.fold_left (fun acc t -> max acc t.sim.Traffic_sim.slots) 0 tasks
  in
  let fingerprint =
    Printf.sprintf "traffic/%d;" chunk
    ^ String.concat ""
        (Array.to_list
           (Array.map (fun t -> Traffic_sim.config_key t.sim) tasks))
  in
  let states, report =
    Obs.phase obs "traffic.cells" (fun () ->
        Supervise.run_cells ~cli:cfg.sup ~jobs ~seed:cfg.seed
          ~horizon:max_slots ~chunk
          {
            Supervise.name;
            fingerprint;
            labels = Array.map (fun t -> t.label) tasks;
            create = (fun i -> Traffic_sim.create tasks.(i).sim);
            restore = (fun i -> Traffic_sim.restore tasks.(i).sim);
            advance =
              (fun ~watchdog t ~upto -> Traffic_sim.advance ~watchdog t ~upto);
            encode = Traffic_sim.encode;
            (* Restoring every surviving snapshot against its config is
               the whole gate. *)
            check = ignore;
          })
  in
  (* Terminal accounting per cell, in task order (deterministic obs
     merges). *)
  let cell_results =
    Array.mapi
      (fun i task ->
        match states.(i) with
        | Error _ ->
            {
              label = task.label;
              strategy = task.strategy;
              width = task.width;
              report = None;
            }
        | Ok t ->
            Traffic_sim.finish t;
            let r = Traffic_sim.report t in
            if Obs.on obs then begin
              Registry.merge ~into:(Obs.registry obs) (Traffic_sim.registry t);
              Recovery.observe obs (Traffic_sim.recovery t)
            end;
            {
              label = task.label;
              strategy = task.strategy;
              width = task.width;
              report = Some r;
            })
      tasks
  in
  let cell_results = Array.to_list cell_results in
  let find_swarm mode =
    List.find_map
      (fun (c : cell_result) ->
        if c.label = "swarm/" ^ Swarm.mode_name mode then c.report else None)
      cell_results
  in
  let swarm =
    match
      ( find_swarm Swarm.Single_path,
        find_swarm Swarm.Multi_diversity,
        find_swarm Swarm.Multi_adaptive )
    with
    | Some single, Some multi_diversity, Some multi_adaptive ->
        Some (Swarm.compare ~single ~multi_diversity ~multi_adaptive)
    | _ -> None
  in
  let resolvable =
    Array.fold_left
      (fun acc offered -> if Array.length offered > 0 then acc + 1 else acc)
      0 paths
  in
  if Obs.on obs then Run_report.observe obs report;
  {
    scale = cfg.scale;
    seed = cfg.seed;
    flows_total =
      (List.length cfg.strategies * cfg.flows) + (3 * cfg.swarm_transfers);
    pairs = Array.length (Demand.pairs demand);
    resolvable_pairs = resolvable;
    outage_link;
    cells = cell_results;
    swarm;
    failures_allowed = cfg.sup.Supervise.max_failures;
    report;
  }

let exit_code r =
  if Run_report.n_failed r.report > r.failures_allowed then 1 else 0

(* --- rendering ---------------------------------------------------------- *)

let json_of_report (r : Traffic_sim.report) =
  Obs_json.Obj
    [
      ("flows_admitted", Obs_json.Int r.Traffic_sim.flows_admitted);
      ("flows_rejected", Obs_json.Int r.Traffic_sim.flows_rejected);
      ("flows_completed", Obs_json.Int r.Traffic_sim.flows_completed);
      ("flows_unfinished", Obs_json.Int r.Traffic_sim.flows_unfinished);
      ("mean_fct_s", Obs_json.Float r.Traffic_sim.mean_fct_s);
      ("fct_p50_s", Obs_json.Float r.Traffic_sim.fct.Histogram.p50);
      ("fct_p90_s", Obs_json.Float r.Traffic_sim.fct.Histogram.p90);
      ("fct_p99_s", Obs_json.Float r.Traffic_sim.fct.Histogram.p99);
      ("path_switches", Obs_json.Int r.Traffic_sim.path_switches);
      ("delivered_mbit", Obs_json.Float r.Traffic_sim.delivered_mbit);
      ("mean_utilization", Obs_json.Float r.Traffic_sim.mean_utilization);
      ("max_utilization", Obs_json.Float r.Traffic_sim.max_utilization);
      ( "fault_failovers",
        Obs_json.Int r.Traffic_sim.recovery.Recovery.failovers );
      ( "fault_blackouts",
        Obs_json.Int r.Traffic_sim.recovery.Recovery.blackouts );
      ( "fault_affected_pairs",
        Obs_json.Int r.Traffic_sim.recovery.Recovery.affected_pairs );
    ]

let to_json (r : result) =
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("scale", Obs_json.String (Exp_common.scale_to_string r.scale));
      ("seed", Obs_json.String (Int64.to_string r.seed));
      ("flows_total", Obs_json.Int r.flows_total);
      ("pairs", Obs_json.Int r.pairs);
      ("resolvable_pairs", Obs_json.Int r.resolvable_pairs);
      ( "outage_link",
        match r.outage_link with
        | None -> Obs_json.Null
        | Some l -> Obs_json.Int l );
      ( "cells",
        Obs_json.List
          (List.map
             (fun (c : cell_result) ->
               Obs_json.Obj
                 [
                   ("label", Obs_json.String c.label);
                   ("strategy", Obs_json.String c.strategy);
                   ("width", Obs_json.Int c.width);
                   ( "result",
                     match c.report with
                     | None -> Obs_json.Null
                     | Some rep -> json_of_report rep );
                 ])
             r.cells) );
      ( "swarm",
        match r.swarm with
        | None -> Obs_json.Null
        | Some s ->
            Obs_json.Obj
              [
                ("speedup_diversity", Obs_json.Float s.Swarm.speedup_diversity);
                ("speedup_adaptive", Obs_json.Float s.Swarm.speedup_adaptive);
              ] );
      ("supervision", Run_report.to_json r.report);
    ]

let print (r : result) =
  Printf.printf
    "Traffic workloads — flow-level load over control-plane paths (scale=%s, \
     %d flows total, %d/%d resolvable pairs)\n\n"
    (Exp_common.scale_to_string r.scale)
    r.flows_total r.resolvable_pairs r.pairs;
  Table.print
    ~header:
      [
        "cell";
        "w";
        "admitted";
        "done";
        "left";
        "fct mean";
        "fct p90";
        "switches";
        "flow failovers";
        "flow blackouts";
        "util mean";
        "util max";
      ]
    ~rows:
      (List.map
         (fun (c : cell_result) ->
           match c.report with
           | None -> [ c.label; string_of_int c.width; "FAILED"; ""; ""; ""; ""; ""; ""; ""; ""; "" ]
           | Some rep ->
               [
                 c.label;
                 string_of_int c.width;
                 string_of_int rep.Traffic_sim.flows_admitted;
                 string_of_int rep.Traffic_sim.flows_completed;
                 string_of_int rep.Traffic_sim.flows_unfinished;
                 Printf.sprintf "%.3fs" rep.Traffic_sim.mean_fct_s;
                 Printf.sprintf "%.3fs" rep.Traffic_sim.fct.Histogram.p90;
                 string_of_int rep.Traffic_sim.path_switches;
                 string_of_int rep.Traffic_sim.recovery.Recovery.failovers;
                 string_of_int rep.Traffic_sim.recovery.Recovery.blackouts;
                 Printf.sprintf "%.3f" rep.Traffic_sim.mean_utilization;
                 Printf.sprintf "%.3f" rep.Traffic_sim.max_utilization;
               ])
         r.cells);
  print_newline ();
  (match r.swarm with
  | None -> ()
  | Some s ->
      Printf.printf
        "Swarm file transfers: multipath (diversity, w=%d) %.2fx faster than \
         single-path;\n\
         multipath (load-adaptive) %.2fx faster. Mean FCT %.3fs / %.3fs / \
         %.3fs (single / diversity / adaptive).\n\n"
        Swarm.default_params.Swarm.width s.Swarm.speedup_diversity s.Swarm.speedup_adaptive
        s.Swarm.single.Traffic_sim.mean_fct_s
        s.Swarm.multi_diversity.Traffic_sim.mean_fct_s
        s.Swarm.multi_adaptive.Traffic_sim.mean_fct_s);
  print_endline
    "Demand cells put the same Zipf flow population on each strategy under one\n\
     mid-run link outage, so failover/blackout counts compare like-for-like;\n\
     swarm cells rerun one bulk-transfer demand in single-path and multipath\n\
     modes. Utilization is delivered traffic over capacity x elapsed time, on\n\
     links that carried traffic.";
  if Run_report.n_failed r.report > 0 then begin
    print_newline ();
    Format.printf "%a@." Run_report.pp r.report
  end
