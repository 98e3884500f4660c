(** Traffic workloads: flow-level load over the control plane's paths.

    The missing data-plane half of the scalability story: the path
    sets that beaconing and segment resolution actually produced are
    put under Zipf-shaped flow demand ({!Demand}), with per-link
    capacities and fluid fair sharing ({!Link_load}), and the
    path-selection strategies of the axiomatic analysis
    ({!Strategy}) are swept against each other under one mid-run link
    outage — so failover and blackout accounting ({!Recovery})
    compare like-for-like. A second workload ({!Swarm}) reruns one
    bulk file-transfer demand in forced single-path and two multipath
    modes, demonstrating the multipath completion-time win.

    Cells advance in 1200-slot work units through
    {!Supervise.run_cells}; between chunks each cell's full simulation
    state round-trips through {!Traffic_sim.encode}, so [--checkpoint-every N
    --checkpoint-dir D] writes resumable checkpoints and [--resume]
    continues from the newest one. Interrupting at any checkpoint and
    resuming yields byte-identical stdout and [--metrics-out] JSON at
    any [--jobs] value. *)

type cell_result = {
  label : string;  (** [demand/<strategy>] or [swarm/<mode>] *)
  strategy : string;
  width : int;  (** subflows per flow *)
  report : Traffic_sim.report option;  (** [None] when the cell failed *)
}

type result = {
  scale : Exp_common.scale;
  seed : int64;
  flows_total : int;  (** flows simulated across all cells *)
  pairs : int;  (** demand endpoint pairs *)
  resolvable_pairs : int;  (** pairs the control plane found paths for *)
  outage_link : int option;  (** the injected mid-run failure site *)
  cells : cell_result list;
  swarm : Swarm.comparison option;
      (** [None] only when a swarm cell failed *)
  failures_allowed : int;  (** the [--max-failures] tolerance *)
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

val config :
  ?seed:int64 ->
  ?flows:int ->
  ?strategy:Strategy.t ->
  ?capacity_scale:float ->
  ?swarm_transfers:int ->
  ?sup:Supervise.cli ->
  Exp_common.scale ->
  config
(** Defaults: seed [0x7AF1CL], all three strategies, capacity scale
    0.2 (a moderately contended regime), and per-scale flow and swarm
    transfer counts that put the small preset above 100k total flows.
    Fixed: {!Swarm.default_params}' 3-way swarm multipath, 1 s slots with a 10 min drain past
    the arrival horizon, and 1200-slot supervised work units
    (checkpoints fall on their boundaries). *)

include Scenario.Cli with type config := config and type result := result

val exit_code : result -> int
(** [1] when more cells failed than [sup.max_failures] tolerates, else
    [0]: the exit code of [scion_expt run traffic]. *)
