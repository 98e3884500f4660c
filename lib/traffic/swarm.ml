type params = {
  transfers : int;
  n_pairs : int;
  file_mbit : float;
  width : int;
  horizon_s : float;
  drain_s : float;
  seed : int64;
}

let default_params =
  {
    transfers = 2_000;
    n_pairs = 40;
    file_mbit = 400.0;
    width = 3;
    horizon_s = 600.0;
    drain_s = 300.0;
    seed = 0x5EEDL;
  }

let validate p =
  if p.transfers < 0 then invalid_arg "Swarm.demand: transfers < 0";
  if p.n_pairs <= 0 then invalid_arg "Swarm.demand: n_pairs <= 0";
  if not (p.file_mbit > 0.0) then invalid_arg "Swarm.demand: file_mbit <= 0";
  if p.width < 1 then invalid_arg "Swarm.demand: width < 1";
  if not (p.horizon_s > 0.0) then invalid_arg "Swarm.demand: horizon_s <= 0";
  if p.drain_s < 0.0 then invalid_arg "Swarm.demand: drain_s < 0"

let demand g p =
  validate p;
  Demand.create g
    {
      Demand.n_pairs = p.n_pairs;
      flows = p.transfers;
      mean_size_mbit = p.file_mbit;
      (* Heavier shape than the demand default: file sizes cluster
         around the mean instead of a long mice tail, so completion
         times compare like-for-like across modes. *)
      pareto_alpha = 2.5;
      horizon_s = p.horizon_s;
      seed = p.seed;
    }

type mode = Single_path | Multi_diversity | Multi_adaptive

let modes = [ Single_path; Multi_diversity; Multi_adaptive ]

let mode_name = function
  | Single_path -> "single"
  | Multi_diversity -> "multi-div"
  | Multi_adaptive -> "multi-load"

let cell_config ~graph ~paths ~latency_ms ~demand ~capacity_scale ~slot_s p mode
    =
  validate p;
  let strategy, width =
    match mode with
    | Single_path -> (Strategy.Diversity_max, 1)
    | Multi_diversity -> (Strategy.Diversity_max, p.width)
    | Multi_adaptive -> (Strategy.Load_adaptive, p.width)
  in
  {
    Traffic_sim.graph;
    paths;
    latency_ms;
    demand;
    strategy;
    width;
    (* No fault injection inside the swarm cells: the comparison
       isolates the multipath effect. *)
    plan = Fault_plan.plan [];
    capacity_scale;
    slot_s;
    slots =
      int_of_float (Float.ceil ((p.horizon_s +. p.drain_s) /. slot_s)) + 1;
    adapt_margin = (match mode with Multi_adaptive -> 1.25 | _ -> 0.0);
    metric_labels = [ ("workload", "swarm"); ("mode", mode_name mode) ];
  }

type comparison = {
  single : Traffic_sim.report;
  multi_diversity : Traffic_sim.report;
  multi_adaptive : Traffic_sim.report;
  speedup_diversity : float;
  speedup_adaptive : float;
}

let speedup ~single ~multi =
  if
    single.Traffic_sim.flows_completed = 0
    || multi.Traffic_sim.flows_completed = 0
  then Float.nan
  else single.Traffic_sim.mean_fct_s /. multi.Traffic_sim.mean_fct_s

let compare ~single ~multi_diversity ~multi_adaptive =
  {
    single;
    multi_diversity;
    multi_adaptive;
    speedup_diversity = speedup ~single ~multi:multi_diversity;
    speedup_adaptive = speedup ~single ~multi:multi_adaptive;
  }
