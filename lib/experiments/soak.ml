type config = {
  graph : Graph.t;
  beacon : Beaconing.config;
  plan : Fault_plan.t;
  pairs : (int * int) array;
  register_top : int;
  metric_labels : (string * string) list;
}

type pair_track = {
  mutable prev_keys : string list;
  mutable births : (string * int) list;
  mutable avail_rounds : int;
  mutable jaccard_sum : float;
  mutable jaccard_n : int;
}

type t = {
  config : config;
  mutable round : int;
  rng : Rng.t;
  driver : Fault_engine.driver;
  tracks : pair_track array;
  metrics : Registry.t;
}

let lifetime_metric = "soak_path_lifetime_rounds"

let validate cfg =
  (match cfg.beacon.Beaconing.algorithm with
  | Beacon_policy.Baseline -> ()
  | _ -> invalid_arg "Soak.create: only the Baseline algorithm is checkpointable");
  if cfg.register_top < 0 then invalid_arg "Soak.create: register_top < 0";
  let n = Graph.n cfg.graph in
  Array.iter
    (fun (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n || s = d then
        invalid_arg "Soak.create: invalid tracked pair")
    cfg.pairs

let engine_config { graph; beacon; plan; pairs; _ } =
  { Fault_engine.graph; beacon; plan; pairs }

let fresh_track () =
  {
    prev_keys = [];
    births = [];
    avail_rounds = 0;
    jaccard_sum = 0.0;
    jaccard_n = 0;
  }

let create cfg =
  validate cfg;
  let metrics = Registry.create () in
  (* Eagerly create the lifetime histogram so reading a report never
     changes the registry (and thus never perturbs a re-saved
     snapshot). *)
  ignore (Registry.histogram metrics ~labels:cfg.metric_labels lifetime_metric);
  let ps =
    Path_server.create ~per_leaf_limit:cfg.beacon.Beaconing.storage_limit ()
  in
  {
    config = cfg;
    round = 0;
    rng = Rng.create cfg.plan.Fault_plan.seed;
    driver =
      Fault_engine.driver (engine_config cfg) ps ~register:cfg.register_top;
    tracks = Array.map (fun _ -> fresh_track ()) cfg.pairs;
    metrics;
  }

let round t = t.round

let stats t = Beaconing.engine_stats (Fault_engine.engine t.driver)

let registry t = t.metrics

let lifetimes t =
  Registry.histogram t.metrics ~labels:t.config.metric_labels lifetime_metric

(* --- sorted-key-set helpers ----------------------------------------- *)

let rec inter_union a b ~inter ~union =
  match (a, b) with
  | [], rest | rest, [] -> (inter, union + List.length rest)
  | x :: xs, y :: ys ->
      let c = compare x y in
      if c = 0 then inter_union xs ys ~inter:(inter + 1) ~union:(union + 1)
      else if c < 0 then inter_union xs (y :: ys) ~inter ~union:(union + 1)
      else inter_union (x :: xs) ys ~inter ~union:(union + 1)

let jaccard a b =
  match (a, b) with
  | [], [] -> 1.0
  | _ ->
      let inter, union = inter_union a b ~inter:0 ~union:0 in
      float_of_int inter /. float_of_int union

(* --- one pair at a round barrier ------------------------------------ *)

let track t ~round:r ~now:_ i paths =
  let tr = t.tracks.(i) in
  let keys =
    List.sort_uniq compare (List.map (fun (p : Pcb.t) -> p.Pcb.key) paths)
  in
  if keys <> [] then tr.avail_rounds <- tr.avail_rounds + 1;
  if r > 0 then begin
    tr.jaccard_sum <- tr.jaccard_sum +. jaccard tr.prev_keys keys;
    tr.jaccard_n <- tr.jaccard_n + 1
  end;
  (* Births for new keys, completed lifetimes for vanished ones. *)
  let surviving, died =
    List.partition (fun (k, _) -> List.mem k keys) tr.births
  in
  let h = lifetimes t in
  List.iter (fun (_, b) -> Histogram.observe h (float_of_int (r - b))) died;
  let fresh = List.filter (fun k -> not (List.mem_assoc k surviving)) keys in
  tr.births <- List.sort compare (surviving @ List.map (fun k -> (k, r)) fresh);
  tr.prev_keys <- keys

let advance ?watchdog t ~upto =
  let pairs = t.config.pairs in
  for r = t.round to min upto (stats t).Beaconing.rounds - 1 do
    Fault_engine.step t.driver ~round:r (track t ~round:r);
    (* One random path-server probe per round: exercises lookup stats
       and keeps the trial RNG live across checkpoints. *)
    if Array.length pairs > 0 then
      ignore
        (Path_server.lookup_core
           (Fault_engine.path_server t.driver)
           ~now:(float_of_int r *. t.config.beacon.Beaconing.interval)
           ~remote:(snd pairs.(Rng.int t.rng (Array.length pairs))));
    t.round <- r + 1;
    (* Check the deadline only at round boundaries: a timed-out job
       is abandoned with consistent state (and retries replay from
       the last snapshot, so partial progress cannot leak). *)
    match watchdog with Some w -> Watchdog.check w | None -> ()
  done

let invariant_ctx t =
  let last = float_of_int (max 0 (t.round - 1)) in
  Fault_engine.invariant_ctx t.driver
    ~now:(last *. t.config.beacon.Beaconing.interval)

(* --- snapshot --------------------------------------------------------- *)

let encode t =
  let w = Snapshot.writer () in
  Snapshot.w_int w t.round;
  Snapshot.w_rng w t.rng;
  Fault_engine.write w t.driver;
  Snapshot.w_arr w
    (fun w tr ->
      Snapshot.w_list w Snapshot.w_str tr.prev_keys;
      Snapshot.w_list w
        (fun w (k, b) ->
          Snapshot.w_str w k;
          Snapshot.w_int w b)
        tr.births;
      Snapshot.w_int w tr.avail_rounds;
      Snapshot.w_f64 w tr.jaccard_sum;
      Snapshot.w_int w tr.jaccard_n)
    t.tracks;
  Registry.write w t.metrics;
  Snapshot.contents w

let restore cfg data =
  validate cfg;
  let r = Snapshot.reader data in
  let round = Snapshot.r_int r in
  let rng = Snapshot.r_rng r in
  let driver =
    Fault_engine.read r (engine_config cfg) ~register:cfg.register_top
  in
  let tracks =
    Snapshot.r_arr r (fun r ->
        let prev_keys = Snapshot.r_list r Snapshot.r_str in
        let births =
          Snapshot.r_list r (fun r ->
              let k = Snapshot.r_str r in
              let b = Snapshot.r_int r in
              (k, b))
        in
        let avail_rounds = Snapshot.r_int r in
        let jaccard_sum = Snapshot.r_f64 r in
        let jaccard_n = Snapshot.r_int r in
        { prev_keys; births; avail_rounds; jaccard_sum; jaccard_n })
  in
  let metrics = Registry.read r in
  Snapshot.r_end r;
  if Array.length tracks <> Array.length cfg.pairs then
    raise (Snapshot.Corrupt "soak snapshot: tracked pair count mismatch");
  { config = cfg; round; rng; driver; tracks; metrics }

let config_key cfg =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "graph:%d/%d;" (Graph.n cfg.graph) (Graph.num_links cfg.graph);
  for l = 0 to Graph.num_links cfg.graph - 1 do
    let lk = Graph.link cfg.graph l in
    add "%d-%d;" lk.Graph.a lk.Graph.b
  done;
  let bc = cfg.beacon in
  add "beacon:%s/%g/%g/%d/%g/%b;"
    (match bc.Beaconing.scope with
    | Beaconing.Core_beaconing -> "core"
    | Beaconing.Intra_isd -> "intra")
    bc.Beaconing.interval bc.Beaconing.lifetime bc.Beaconing.storage_limit
    bc.Beaconing.duration bc.Beaconing.verify_crypto;
  Buffer.add_string b (Fault_plan.fingerprint ~graph:cfg.graph cfg.plan);
  Array.iter (fun (s, d) -> add "p%d-%d;" s d) cfg.pairs;
  add "top:%d" cfg.register_top;
  Buffer.contents b

(* --- report ----------------------------------------------------------- *)

type report = {
  rounds_done : int;
  availability_mean : float;
  availability_min : float;
  jaccard_overall : float;
  lifetimes : Histogram.summary;
  survivors : int;
  link_failures : int;
  link_repairs : int;
  pcbs_dropped : int;
  segments_revoked : int;
  ps_stats : Path_server.stats;
  total_pcbs : int;
  total_bytes : float;
}

let report t =
  let rounds_done = t.round in
  let availability tr =
    if rounds_done = 0 then 0.0
    else float_of_int tr.avail_rounds /. float_of_int rounds_done
  in
  let mean f =
    if Array.length t.tracks = 0 then 0.0
    else
      Array.fold_left (fun acc tr -> acc +. f tr) 0.0 t.tracks
      /. float_of_int (Array.length t.tracks)
  in
  let survivors =
    Array.fold_left (fun acc tr -> acc + List.length tr.births) 0 t.tracks
  in
  let faults = Fault_engine.counts t.driver in
  {
    rounds_done;
    availability_mean = mean availability;
    availability_min =
      Array.fold_left (fun m tr -> Float.min m (availability tr)) 1.0 t.tracks;
    jaccard_overall =
      mean (fun tr ->
          if tr.jaccard_n = 0 then 1.0
          else tr.jaccard_sum /. float_of_int tr.jaccard_n);
    lifetimes = Histogram.summarize (lifetimes t);
    survivors;
    link_failures = faults.Fault_engine.link_failures;
    link_repairs = faults.Fault_engine.link_repairs;
    pcbs_dropped = faults.Fault_engine.pcbs_dropped;
    segments_revoked = faults.Fault_engine.segments_revoked;
    ps_stats = Path_server.stats (Fault_engine.path_server t.driver);
    total_pcbs = (stats t).Beaconing.total_pcbs;
    total_bytes = (stats t).Beaconing.total_bytes;
  }
