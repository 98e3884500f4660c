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

type state = {
  mutable round : int;
  rng : Rng.t;
  eng : Beaconing.engine;
  links : Link_state.t;
  mutable cursor : int;
  mutable link_failures : int;
  mutable link_repairs : int;
  mutable pcbs_dropped : int;
  mutable segments_revoked : int;
  ps : Path_server.t;
  tracks : pair_track array;
  metrics : Registry.t;
}

type t = {
  config : config;
  events : Fault_plan.event array;
  fwd_keys : Fwd_keys.t;
  state : state;
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
  let state =
    {
      round = 0;
      rng = Rng.create cfg.plan.Fault_plan.seed;
      eng = Beaconing.engine cfg.graph cfg.beacon;
      links = Link_state.create ~n_links:(Graph.num_links cfg.graph);
      cursor = 0;
      link_failures = 0;
      link_repairs = 0;
      pcbs_dropped = 0;
      segments_revoked = 0;
      ps = Path_server.create ~per_leaf_limit:cfg.beacon.Beaconing.storage_limit ();
      tracks = Array.map (fun _ -> fresh_track ()) cfg.pairs;
      metrics;
    }
  in
  {
    config = cfg;
    events = Fault_plan.compile ~graph:cfg.graph cfg.plan;
    fwd_keys = Fwd_keys.create ();
    state;
  }

let round t = t.state.round

let stores t = Beaconing.engine_stores t.state.eng

let stats t = Beaconing.engine_stats t.state.eng

let registry t = t.state.metrics

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

(* --- one round barrier ----------------------------------------------- *)

let barrier t ~round:r ~now =
  let st = t.state in
  let cfg = t.config in
  let lifetime_h =
    Registry.histogram st.metrics ~labels:cfg.metric_labels lifetime_metric
  in
  Array.iteri
    (fun i (s, o) ->
      let tr = st.tracks.(i) in
      let paths = Beacon_store.paths (stores t).(s) ~now ~origin:o in
      Path_server.register_best_core st.ps cfg.graph t.fwd_keys ~now ~holder:s
        ~k:cfg.register_top paths;
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
      List.iter
        (fun (_, birth) ->
          Histogram.observe lifetime_h (float_of_int (r - birth)))
        died;
      let fresh =
        List.filter
          (fun k -> not (List.exists (fun (k', _) -> k' = k) surviving))
          keys
      in
      tr.births <-
        List.sort compare (surviving @ List.map (fun k -> (k, r)) fresh);
      tr.prev_keys <- keys)
    cfg.pairs;
  (* One random path-server probe per round: exercises lookup stats and
     keeps the trial RNG live across checkpoints. *)
  if Array.length cfg.pairs > 0 then begin
    let _, o = cfg.pairs.(Rng.int st.rng (Array.length cfg.pairs)) in
    ignore (Path_server.lookup_core st.ps ~now ~remote:o)
  end

let advance ?watchdog t ~upto =
  let st = t.state in
  let cfg = t.config in
  let interval = cfg.beacon.Beaconing.interval in
  let upto = min upto (stats t).Beaconing.rounds in
  let on_down ~now:_ ~link =
    st.link_failures <- st.link_failures + 1;
    let dropped, revoked =
      Fault_engine.invalidate_link (stores t) st.ps ~link
    in
    st.pcbs_dropped <- st.pcbs_dropped + dropped;
    st.segments_revoked <- st.segments_revoked + revoked
  in
  let on_up ~now:_ ~link:_ = st.link_repairs <- st.link_repairs + 1 in
  for r = st.round to upto - 1 do
    let now = float_of_int r *. interval in
    st.cursor <-
      Link_state.replay st.links t.events ~from:st.cursor ~until:now ~on_down
        ~on_up;
    Beaconing.engine_round ~link_up:(Link_state.up st.links) st.eng ~round:r;
    barrier t ~round:r ~now;
    st.round <- r + 1;
    (* Check the deadline only at round boundaries: a timed-out job
       is abandoned with consistent state (and retries replay from
       the last snapshot, so partial progress cannot leak). *)
    match watchdog with Some w -> Watchdog.check w | None -> ()
  done

let invariant_ctx t =
  let st = t.state in
  {
    Invariants.graph = t.config.graph;
    now =
      (if st.round = 0 then 0.0
       else float_of_int (st.round - 1) *. t.config.beacon.Beaconing.interval);
    links = st.links;
    stores = stores t;
    path_server = Some st.ps;
    events = t.events;
    cursor = st.cursor;
  }

(* --- snapshot --------------------------------------------------------- *)

let encode t =
  let st = t.state in
  let w = Snapshot.writer () in
  Snapshot.w_int w st.round;
  Snapshot.w_rng w st.rng;
  Snapshot.w_int w st.cursor;
  Snapshot.w_int w st.link_failures;
  Snapshot.w_int w st.link_repairs;
  Snapshot.w_int w st.pcbs_dropped;
  Snapshot.w_int w st.segments_revoked;
  Beaconing.write w st.eng;
  Link_state.write w st.links;
  Path_server.write w st.ps;
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
    st.tracks;
  Registry.write w st.metrics;
  Snapshot.contents w

let restore cfg data =
  validate cfg;
  let r = Snapshot.reader data in
  let round = Snapshot.r_int r in
  let rng = Snapshot.r_rng r in
  let cursor = Snapshot.r_int r in
  let link_failures = Snapshot.r_int r in
  let link_repairs = Snapshot.r_int r in
  let pcbs_dropped = Snapshot.r_int r in
  let segments_revoked = Snapshot.r_int r in
  let eng = Beaconing.read r cfg.graph cfg.beacon in
  let links = Link_state.read r in
  let ps = Path_server.read r in
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
  let events = Fault_plan.compile ~graph:cfg.graph cfg.plan in
  if Link_state.n_links links <> Graph.num_links cfg.graph then
    raise (Snapshot.Corrupt "soak snapshot: link count / graph mismatch");
  if Array.length tracks <> Array.length cfg.pairs then
    raise (Snapshot.Corrupt "soak snapshot: tracked pair count mismatch");
  if cursor < 0 || cursor > Array.length events then
    raise (Snapshot.Corrupt "soak snapshot: fault cursor out of range");
  {
    config = cfg;
    events;
    fwd_keys = Fwd_keys.create ();
    state =
      {
        round;
        rng;
        eng;
        links;
        cursor;
        link_failures;
        link_repairs;
        pcbs_dropped;
        segments_revoked;
        ps;
        tracks;
        metrics;
      };
  }

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

type pair_report = {
  src : int;
  dst : int;
  availability : float;
  jaccard_mean : float;
}

type report = {
  rounds_done : int;
  pair_reports : pair_report array;
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
  let st = t.state in
  let rounds_done = st.round in
  let pair_reports =
    Array.mapi
      (fun i (src, dst) ->
        let tr = st.tracks.(i) in
        {
          src;
          dst;
          availability =
            (if rounds_done = 0 then 0.0
             else float_of_int tr.avail_rounds /. float_of_int rounds_done);
          jaccard_mean =
            (if tr.jaccard_n = 0 then 1.0
             else tr.jaccard_sum /. float_of_int tr.jaccard_n);
        })
      t.config.pairs
  in
  let mean f =
    if Array.length pair_reports = 0 then 0.0
    else
      Array.fold_left (fun acc p -> acc +. f p) 0.0 pair_reports
      /. float_of_int (Array.length pair_reports)
  in
  let availability_min =
    Array.fold_left (fun acc p -> Float.min acc p.availability) 1.0 pair_reports
  in
  let lifetimes =
    Histogram.summarize
      (Registry.histogram st.metrics ~labels:t.config.metric_labels
         lifetime_metric)
  in
  let survivors =
    Array.fold_left (fun acc tr -> acc + List.length tr.births) 0 st.tracks
  in
  {
    rounds_done;
    pair_reports;
    availability_mean = mean (fun p -> p.availability);
    availability_min;
    jaccard_overall = mean (fun p -> p.jaccard_mean);
    lifetimes;
    survivors;
    link_failures = st.link_failures;
    link_repairs = st.link_repairs;
    pcbs_dropped = st.pcbs_dropped;
    segments_revoked = st.segments_revoked;
    ps_stats = Path_server.stats st.ps;
    total_pcbs = (stats t).Beaconing.total_pcbs;
    total_bytes = (stats t).Beaconing.total_bytes;
  }
