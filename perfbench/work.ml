(* The three benchmark workloads.

   Each workload replays one scenario of lib/experiments call for call,
   through the libraries' public functions and in the scenario's order,
   but at a reduced size. Every call into a layer is wrapped in a span
   (free when tracing is off), so the traced run can split the time by
   layer without any instrumentation inside the libraries. Where a
   scenario keeps a helper private, the helper is copied here verbatim;
   replay_test.ml checks that each replay still equals its scenario. *)

let dims = Exp_common.dimensions Exp_common.Tiny

(* --- run context -------------------------------------------------------- *)

type ctx = {
  sp : Span.t;
  work_dir : string;  (** checkpoint files go here *)
  mutable attempted : int;
  mutable failed : int;
  counts : (string, float) Hashtbl.t;
      (** per-layer counts and allocation of the last iteration *)
}

let ctx ~trace ~work_dir =
  { sp = Span.create ~on:trace; work_dir; attempted = 0; failed = 0; counts = Hashtbl.create 64 }

let span c name f = Span.with_ c.sp name f

let check c name ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" name
  end

let set c key v = Hashtbl.replace c.counts key v

let add c key v =
  Hashtbl.replace c.counts key (v +. Option.value (Hashtbl.find_opt c.counts key) ~default:0.0)

let get c key = Option.value (Hashtbl.find_opt c.counts key) ~default:0.0

(* Words allocated so far by this domain (minor + direct major). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run [f], adding the words it allocates to [key] (in millions). *)
let alloc c key f =
  let w0 = words () in
  Fun.protect ~finally:(fun () -> add c key ((words () -. w0) /. 1e6)) f

let digest_of b = Sha256.hex (Sha256.digest (Buffer.contents b))

(* --- seeds -------------------------------------------------------------- *)

(* Seed 0 is the scenarios' own inputs, the only ones with goldens.
   Every other seed derives the BGP workload, the soak pairs and the
   fault plans from the seed, and relabels the fig5 and soak topologies
   with a seeded permutation of their AS indices: the same graphs up to
   isomorphism, so the amount of work stays nearly fixed while
   iteration and tie-breaking order change everywhere. Generating a
   fresh topology per seed was tried and rejected: at tiny scale it
   moved pathdyn-soak's peak heap by 16% and pushed traffic-congested
   into saturation on one seed in five (run time 20x).

   traffic-congested keeps the scenario's topology, demand and outage on
   every seed; only the fault plan's seed and the supervision base seed
   derive from it. Near saturation its run time jumps with any change of
   input, so every seeded variation tried broke the bounds:
   - a fresh demand stream (Pareto(1.5) flow sizes): 2.7x across 5 seeds;
   - a relabelled topology, which reorders the offered paths Traffic_exp
     truncates to 16 per pair: 3 seeds in 40 ran over 10x longer;
   - a seeded outage window: 2 seeds in 30 ran over 10x longer. *)
type seeds = {
  relabel : int64 option;
  bgp : int64;
  soak : int64;
  soak_pairs : int64;
  traffic : int64;
}

let seeds n =
  let d base = if n = 0 then base else Runner.job_seed base n in
  {
    relabel = (if n = 0 then None else Some (d 0x5EEDL));
    bgp = d 0xB6FL;
    soak = d 0xFA17L;
    soak_pairs = d 0xFA12L;
    traffic = d 0x7AF1CL;
  }

(* --- topology layer: Exp_common.prepare split at its two stages --------- *)

(* The same graph with its AS indices shuffled by [seed], and the map
   from old to new index. *)
let relabel g seed =
  let n = Graph.n g in
  let rng = Rng.create seed in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let new_of_old = Array.make n 0 in
  Array.iteri (fun i old -> new_of_old.(old) <- i) order;
  let b = Graph.builder () in
  Array.iter
    (fun old ->
      let info = Graph.as_info g old in
      ignore
        (Graph.add_as b ~tier:info.Graph.tier ~cities:info.Graph.cities ~core:info.Graph.core
           info.Graph.ia))
    order;
  for l = 0 to Graph.num_links g - 1 do
    let lk = Graph.link g l in
    Graph.add_link b ~rel:lk.Graph.rel new_of_old.(lk.Graph.a) new_of_old.(lk.Graph.b)
  done;
  (Graph.freeze b, new_of_old)


let generate c =
  span c "topology.generate" (fun () ->
      Caida_like.generate
        { Caida_like.default_params with n = dims.full_n; seed = Exp_common.topology_seed })

(* The body of Exp_common.prepare after generation, followed by the
   seed's relabelling of each topology. *)
let derive_prepared s full =
  let core, old_of_new = Caida_like.core_subset full ~k:dims.core_k in
  let core = Caida_like.assign_isds core ~per_isd:10 in
  let isd, _ = Caida_like.build_isd full ~n_core:dims.isd_cores in
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun ni oi -> Hashtbl.replace new_of_old oi ni) old_of_new;
  let candidates = Bgp_overhead.top_degree_monitors full ~count:(Graph.n full) in
  let rec pick acc_full acc_core n = function
    | [] -> (List.rev acc_full, List.rev acc_core)
    | _ when n = 0 -> (List.rev acc_full, List.rev acc_core)
    | m :: rest -> (
        match Hashtbl.find_opt new_of_old m with
        | Some nm -> pick (m :: acc_full) (nm :: acc_core) (n - 1) rest
        | None -> pick acc_full acc_core n rest)
  in
  let monitors_full, monitors_core = pick [] [] dims.monitors candidates in
  let prep =
    {
      Exp_common.scale = Exp_common.Tiny;
      full;
      core;
      core_old_of_new = old_of_new;
      isd;
      monitors_full;
      monitors_core;
    }
  in
  match s.relabel with
  | None -> prep
  | Some seed ->
      let full, full_map = relabel full (Runner.job_seed seed 0) in
      let core, core_map = relabel core (Runner.job_seed seed 1) in
      {
        prep with
        full;
        core;
        core_old_of_new =
          (let a = Array.make (Array.length old_of_new) 0 in
           Array.iteri (fun i o -> a.(core_map.(i)) <- full_map.(o)) old_of_new;
           a);
        isd = fst (relabel isd (Runner.job_seed seed 2));
        monitors_full = List.map (fun m -> full_map.(m)) monitors_full;
        monitors_core = List.map (fun m -> core_map.(m)) monitors_core;
      }

(* --- beaconing layer ---------------------------------------------------- *)

(* One beaconing simulation driven round by round, as Beaconing.run
   does. The traced run passes an enabled Obs context so the engine's
   own [beacon.selection_round] timer splits selection from delivery. *)
let beacon_run c run g cfg =
  let obs = if Span.enabled c.sp then Obs.create () else Obs.disabled in
  let key s = Printf.sprintf "beaconing.%s.%s" run s in
  let out =
    alloc c (key "alloc_mw") (fun () ->
        span c ("beaconing." ^ run) (fun () ->
            let e = Beaconing.engine ~obs g cfg in
            for r = 0 to (Beaconing.engine_stats e).Beaconing.rounds - 1 do
              span c (key "round") (fun () -> Beaconing.engine_round e ~round:r)
            done;
            let out = Beaconing.engine_outcome e in
            if Obs.on obs then Beaconing.observe obs out;
            out))
  in
  let st = out.Beaconing.stats in
  let stored =
    Array.fold_left (fun a s -> a + Beacon_store.total s) 0 out.Beaconing.stores
  in
  add c (key "select_s") (Timer.total (Obs.timers obs) "beacon.selection_round");
  add c (key "pcbs_sent") (float_of_int st.Beaconing.total_pcbs);
  add c (key "bytes_sent") st.Beaconing.total_bytes;
  add c (key "pcbs_stored") (float_of_int stored);
  add c "pcbs_sent" (float_of_int st.Beaconing.total_pcbs);
  check c (key "iface_pcbs_sum")
    (Array.fold_left ( + ) 0 st.Beaconing.pcbs_on_iface = st.Beaconing.total_pcbs);
  check c (key "store_limit")
    (Array.for_all
       (fun s ->
         List.for_all
           (fun o -> Beacon_store.count s ~origin:o <= cfg.Beaconing.storage_limit)
           (Beacon_store.origins s))
       out.Beaconing.stores);
  out

let beacon_digest b name (out : Beaconing.outcome) =
  Printf.bprintf b "%s pcbs=%d bytes=%h\n" name out.Beaconing.stats.Beaconing.total_pcbs
    out.Beaconing.stats.Beaconing.total_bytes

(* --- fig5-overhead: Fig5.run ------------------------------------------- *)

let fig5_rounds = 3

let fig5_beacon ~rounds =
  {
    Exp_common.beacon_config with
    Beaconing.duration = Exp_common.beacon_config.Beaconing.interval *. float_of_int rounds;
  }

type fig5_input = { prep : Exp_common.prepared; bgp_workload : Bgp_overhead.workload }

let fig5_setup c s =
  let full = generate c in
  span c "topology.derive" (fun () ->
      let prep = derive_prepared s full in
      let prefix_mean =
        min 400.0
          (400.0 *. float_of_int (Graph.n prep.Exp_common.core) /. float_of_int (Graph.n full))
      in
      { prep; bgp_workload = Bgp_overhead.make_workload ~prefix_mean full ~seed:s.bgp })

(* Fig5's private monthly_scion_bytes and make_series. *)
let monthly_scion_bytes outcome monitors =
  let g = outcome.Beaconing.graph in
  let per_as = Beaconing.received_bytes_by_as outcome in
  let factor = Exp_common.months_factor outcome.Beaconing.config in
  List.map
    (fun m -> per_as.(m) *. factor /. float_of_int (max 1 (Graph.link_degree g m)))
    monitors
  |> Array.of_list

let ratios ~bgp values = Array.mapi (fun i v -> v /. max 1.0 bgp.(i)) values

(* Returns the Fig. 5 series (name, per-monitor ratios) and the digest
   of the deterministic outputs. *)
let fig5_run c { prep; bgp_workload } =
  let cfg = fig5_beacon ~rounds:fig5_rounds in
  let bgp =
    span c "bgp.overhead" (fun () ->
        Bgp_overhead.monthly_overhead prep.Exp_common.full bgp_workload
          ~monitors:prep.Exp_common.monitors_full Bgp_overhead.default_params)
  in
  let core = prep.Exp_common.core and isd = prep.Exp_common.isd in
  let base = beacon_run c "baseline" core cfg in
  let div =
    beacon_run c "diversity" core
      {
        cfg with
        Beaconing.algorithm = Beacon_policy.Diversity Beacon_policy.default_div_params;
      }
  in
  let intra = beacon_run c "intra" isd { cfg with Beaconing.scope = Beaconing.Intra_isd } in
  let series =
    span c "fig5.series" (fun () ->
        let bgp_bytes = bgp.Bgp_overhead.bgp_bytes in
        let monitors_core = prep.Exp_common.monitors_core in
        let isd_samples =
          Bgp_overhead.top_degree_monitors isd
            ~count:(List.length prep.Exp_common.monitors_full)
        in
        [
          ("BGPsec", ratios ~bgp:bgp_bytes bgp.Bgp_overhead.bgpsec_bytes);
          ( "SCION core beaconing (baseline)",
            ratios ~bgp:bgp_bytes (monthly_scion_bytes base monitors_core) );
          ( "SCION core beaconing (diversity)",
            ratios ~bgp:bgp_bytes (monthly_scion_bytes div monitors_core) );
          ( "SCION intra-ISD beaconing (baseline)",
            ratios ~bgp:bgp_bytes (monthly_scion_bytes intra isd_samples) );
        ])
  in
  List.iter
    (fun (name, r) -> check c ("fig5.finite " ^ name) (Array.for_all Float.is_finite r))
    series;
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, r) ->
      Buffer.add_string b name;
      Array.iter (Printf.bprintf b " %h") r;
      Buffer.add_char b '\n')
    series;
  beacon_digest b "baseline" base;
  beacon_digest b "diversity" div;
  beacon_digest b "intra" intra;
  (series, digest_of b)

(* --- pathdyn-soak: Pathdyn.run ------------------------------------------ *)

type soak_shape = {
  rounds : int;
  chunk : int;
  profiles : Pathdyn.profile list;
  limits : int list;
}

(* Pathdyn's default fault profiles. *)
let soak_shape =
  {
    rounds = 3;
    chunk = 1;
    profiles =
      [
        Pathdyn.P_flapping { period_s = 3600.0; down_fraction = 0.25; n_links = 3 };
        Pathdyn.P_stochastic { mtbf_s = 43200.0; mttr_s = 1800.0 };
      ];
    limits = [ 5; 20 ];
  }

let register_top = 3

let profile_kind = function
  | Pathdyn.P_flapping _ -> "flapping"
  | Pathdyn.P_stochastic _ -> "stochastic"

(* Pathdyn's private pick_links and plan_of_profile. *)
let pick_links rng ~num ~count =
  let count = min count num in
  let chosen = ref [] in
  while List.length !chosen < count do
    let l = Rng.int rng num in
    if not (List.mem l !chosen) then chosen := l :: !chosen
  done;
  List.rev !chosen

let plan_of_profile ~graph ~interval ~duration ~seed = function
  | Pathdyn.P_stochastic { mtbf_s; mttr_s } ->
      Fault_plan.plan ~seed
        [
          Fault_plan.Stochastic
            { mtbf = mtbf_s; mttr = mttr_s; start = interval; until = duration };
        ]
  | Pathdyn.P_flapping { period_s; down_fraction; n_links } ->
      let rng = Rng.create seed in
      let links = pick_links rng ~num:(Graph.num_links graph) ~count:n_links in
      Fault_plan.plan ~seed
        (List.map
           (fun link ->
             Fault_plan.Flapping
               { link; at = interval; period = period_s; down_fraction; until = duration })
           links)

type soak_input = {
  shape : soak_shape;
  seed : int64;
  labels : string array;
  soaks : Soak.config array;
  schema : string;
}

let soak_setup c s =
  let shape = soak_shape in
  let full = generate c in
  span c "topology.derive" (fun () ->
      let core = (derive_prepared s full).Exp_common.core in
      let pairs = Exp_common.sample_pairs core ~count:dims.sample_pairs ~seed:s.soak_pairs in
      let cells =
        Array.of_list
          (List.concat_map (fun p -> List.map (fun l -> (p, l)) shape.limits) shape.profiles)
      in
      let beacon = Exp_common.beacon_config in
      let interval = beacon.Beaconing.interval in
      let duration = float_of_int shape.rounds *. interval in
      let soaks =
        Array.mapi
          (fun i (profile, limit) ->
            {
              Soak.graph = core;
              beacon =
                {
                  beacon with
                  Beaconing.algorithm = Beacon_policy.Baseline;
                  Beaconing.storage_limit = limit;
                  Beaconing.duration;
                };
              plan =
                plan_of_profile ~graph:core ~interval ~duration
                  ~seed:(Runner.job_seed s.soak i) profile;
              pairs;
              register_top;
              metric_labels =
                [ ("profile", profile_kind profile); ("limit", string_of_int limit) ];
            })
          cells
      in
      let labels =
        Array.map (fun (p, l) -> Printf.sprintf "%s/L%d/t0" (profile_kind p) l) cells
      in
      let b = Buffer.create 256 in
      Buffer.add_string b (Printf.sprintf "pathdyn/%d/%d;" shape.rounds shape.chunk);
      Array.iter (fun t -> Buffer.add_string b (Soak.config_key t)) soaks;
      let schema = "pathdyn:" ^ Sha256.hex (Sha256.digest (Buffer.contents b)) in
      { shape; seed = s.soak; labels; soaks; schema })

(* Pathdyn's checkpoint payload for all-successful trials. *)
let encode_progress ~done_ statuses =
  let w = Snapshot.writer () in
  Snapshot.w_int w done_;
  Snapshot.w_arr w
    (fun w bytes ->
      Snapshot.w_u8 w 0;
      Snapshot.w_str w bytes)
    statuses;
  Snapshot.contents w

let save_checkpoint c ~prefix ~schema ~n payload =
  span c "checkpoint.save" (fun () ->
      ignore
        (Checkpoint.save ~dir:c.work_dir
           ~name:(Checkpoint.numbered_name ~prefix ~n)
           ~schema ~version:1 payload))

let restore c f = span c "snapshot.restore" f

let encode c f =
  let bytes = span c "snapshot.encode" f in
  set c "snapshot.bytes" (float_of_int (String.length bytes));
  bytes

(* Results of a supervised chunk; a failed job is a failed check and
   leaves the previous snapshot in place. *)
let settle c statuses results =
  Array.iteri
    (fun i r ->
      match r with
      | Ok bytes -> statuses.(i) <- bytes
      | Error f ->
          check c ("job " ^ f.Run_report.label ^ ": " ^ f.Run_report.error) false)
    results

(* Returns the final per-trial reports and the digest. *)
let soak_run c inp =
  let shape = inp.shape in
  let statuses =
    Array.map
      (fun cfg -> encode c (fun () -> Soak.encode (span c "soak.create" (fun () -> Soak.create cfg))))
      inp.soaks
  in
  let rounds_done = ref 0 in
  while !rounds_done < shape.rounds do
    let upto = min shape.rounds (!rounds_done + shape.chunk) in
    let results, _ =
      span c "supervise.map" (fun () ->
          Supervise.map ~label_of:(fun i -> inp.labels.(i)) ~jobs:1
            ~base_seed:(Runner.job_seed inp.seed (shape.rounds + !rounds_done))
            (fun ~obs:_ ~seed:_ ~watchdog (i, bytes) ->
              span c "supervise.job" (fun () ->
                  let t = restore c (fun () -> Soak.restore inp.soaks.(i) bytes) in
                  alloc c "beaconing.soak.alloc_mw" (fun () ->
                      for r = Soak.round t to upto - 1 do
                        span c "soak.round" (fun () -> Soak.advance ~watchdog t ~upto:(r + 1))
                      done);
                  encode c (fun () -> Soak.encode t)))
            (Array.mapi (fun i b -> (i, b)) statuses))
    in
    settle c statuses results;
    rounds_done := upto;
    (* Checkpoint barrier: Pathdyn's consistency gate, then the save. *)
    Array.iteri
      (fun i bytes ->
        let t = restore c (fun () -> Soak.restore inp.soaks.(i) bytes) in
        let violations =
          span c "invariants.check" (fun () -> Invariants.check_all (Soak.invariant_ctx t))
        in
        check c ("invariants " ^ inp.labels.(i)) (violations = []);
        check c ("roundtrip " ^ inp.labels.(i))
          (span c "checks.roundtrip" (fun () -> Soak.encode t) = bytes))
      statuses;
    save_checkpoint c ~prefix:"pathdyn" ~schema:inp.schema ~n:upto
      (encode_progress ~done_:upto statuses)
  done;
  let b = Buffer.create 1024 in
  let reports =
    span c "soak.report" (fun () ->
        Array.mapi
          (fun i bytes ->
            let t = Soak.restore inp.soaks.(i) bytes in
            let r = Soak.report t in
            let stored =
              Array.fold_left
                (fun a s -> a + Beacon_store.total s)
                0 (Soak.invariant_ctx t).Invariants.stores
            in
            add c "beaconing.soak.pcbs_stored" (float_of_int stored);
            (inp.labels.(i), r))
          statuses)
  in
  Array.iteri
    (fun i (label, (r : Soak.report)) ->
      add c "beaconing.soak.pcbs_sent" (float_of_int r.Soak.total_pcbs);
      add c "beaconing.soak.bytes_sent" r.Soak.total_bytes;
      add c "pcbs_sent" (float_of_int r.Soak.total_pcbs);
      add c "faults.link_failures" (float_of_int r.Soak.link_failures);
      add c "faults.pcbs_dropped" (float_of_int r.Soak.pcbs_dropped);
      add c "faults.segments_revoked" (float_of_int r.Soak.segments_revoked);
      Printf.bprintf b "%s %s rounds=%d avail=%h/%h jacc=%h life=%d surv=%d \
                        down=%d up=%d dropped=%d revoked=%d lookups=%d regs=%d \
                        pcbs=%d bytes=%h\n"
        label
        (Sha256.hex (Sha256.digest statuses.(i)))
        r.Soak.rounds_done r.Soak.availability_mean r.Soak.availability_min
        r.Soak.jaccard_overall r.Soak.lifetimes.Histogram.count r.Soak.survivors
        r.Soak.link_failures r.Soak.link_repairs r.Soak.pcbs_dropped
        r.Soak.segments_revoked
        (r.Soak.ps_stats.Path_server.lookups_core + r.Soak.ps_stats.Path_server.lookups_down)
        r.Soak.ps_stats.Path_server.registrations r.Soak.total_pcbs r.Soak.total_bytes)
    reports;
  (reports, digest_of b)

(* --- traffic-congested: the demand cells of Traffic_exp.run ------------- *)

type traffic_shape = {
  flows : int;
  capacity_scale : float;
  cells : (Strategy.t * int) list;  (** strategy, width *)
}

let traffic_shape =
  {
    flows = 28_000;
    capacity_scale = 0.02;
    cells = [ (Strategy.Latency_greedy, 1); (Strategy.Load_adaptive, 2) ];
  }

(* Traffic_exp defaults. *)
let traffic_demand_seed = 0x7AF1CL

let slot_s = 1.0

let drain_s = 600.0

let traffic_chunk = 1200

let max_offered = 16

let cell_name (s, w) =
  match s with
  | Strategy.Latency_greedy -> "greedy"
  | Strategy.Load_adaptive -> "adaptive"
  | Strategy.Diversity_max -> Printf.sprintf "diversity%d" w

(* Traffic_exp's private pick_outage_link. *)
let pick_outage_link ~latency_ms paths =
  let path_lat (p : Fwd_path.t) =
    Array.fold_left (fun a l -> a +. latency_ms.(l)) 0.0 p.Fwd_path.links
  in
  let best = ref None in
  Array.iter
    (fun offered ->
      if !best = None && Array.length offered > 0 then begin
        let p0 =
          Array.fold_left (fun acc p -> if path_lat p < path_lat acc then p else acc)
            offered.(0) offered
        in
        let partial =
          Array.fold_left
            (fun acc l ->
              match acc with
              | Some _ -> acc
              | None ->
                  if Array.exists (fun p -> not (Fwd_path.contains_link p l)) offered
                  then Some l
                  else None)
            None p0.Fwd_path.links
        in
        best :=
          (match partial with
          | Some l -> Some l
          | None ->
              if Array.length p0.Fwd_path.links > 0 then Some p0.Fwd_path.links.(0)
              else None)
      end)
    paths;
  !best

type traffic_input = { tshape : traffic_shape; tseed : int64; graph : Graph.t }

let traffic_setup ?(shape = traffic_shape) c s =
  let full = generate c in
  span c "topology.derive" (fun () ->
      let isd = (derive_prepared { s with relabel = None } full).Exp_common.isd in
      { tshape = shape; tseed = s.traffic; graph = Exp_common.coreify isd })

(* Returns the per-cell (name, report) list and the digest. *)
let traffic_run c { tshape; tseed; graph } =
  let bcfg = Exp_common.beacon_config in
  let bcfg = { bcfg with Beaconing.duration = bcfg.Beaconing.interval *. 8.0 } in
  let core_out =
    beacon_run c "baseline" graph { bcfg with Beaconing.scope = Beaconing.Core_beaconing }
  in
  let intra_out =
    beacon_run c "intra" graph { bcfg with Beaconing.scope = Beaconing.Intra_isd }
  in
  let cs =
    span c "segments.build" (fun () ->
        Control_service.build ~core:core_out ~intra:intra_out ())
  in
  let latency_ms = Geo.latency_table graph in
  let demand =
    span c "traffic.demand" (fun () ->
        Demand.create graph
          {
            Demand.default_params with
            Demand.n_pairs = dims.sample_pairs;
            flows = tshape.flows;
            seed = Runner.job_seed traffic_demand_seed 1;
          })
  in
  let paths =
    Array.map
      (fun (src, dst) ->
        span c "segments.resolve" (fun () ->
            let arr = Array.of_list (Control_service.resolve cs ~src ~dst) in
            if Array.length arr > max_offered then Array.sub arr 0 max_offered else arr))
      (Demand.pairs demand)
  in
  let offered = Array.fold_left (fun a p -> a + Array.length p) 0 paths in
  let resolvable = Array.fold_left (fun a p -> if p = [||] then a else a + 1) 0 paths in
  set c "segments.paths_offered" (float_of_int offered);
  set c "segments.resolvable_share"
    (float_of_int resolvable /. float_of_int (max 1 (Array.length paths)));
  let horizon = (Demand.params demand).Demand.horizon_s in
  let plan =
    Fault_plan.plan ~seed:(Runner.job_seed tseed 3)
      (match pick_outage_link ~latency_ms paths with
      | None -> []
      | Some link ->
          [ Fault_plan.Link_down { link; at = 0.4 *. horizon; duration = 0.2 *. horizon } ])
  in
  let slots = int_of_float (Float.ceil ((horizon +. drain_s) /. slot_s)) + 1 in
  let cells = Array.of_list tshape.cells in
  let names = Array.map cell_name cells in
  let sims =
    Array.map
      (fun (strategy, width) ->
        {
          Traffic_sim.graph;
          paths;
          latency_ms;
          demand;
          strategy;
          width;
          plan;
          capacity_scale = tshape.capacity_scale;
          slot_s;
          slots;
          adapt_margin = 1.25;
          metric_labels = [ ("workload", "demand"); ("strategy", Strategy.name strategy) ];
        })
      cells
  in
  let statuses =
    Array.map
      (fun cfg ->
        encode c (fun () ->
            Traffic_sim.encode (span c "traffic.create" (fun () -> Traffic_sim.create cfg))))
      sims
  in
  let slots_done = ref 0 in
  while !slots_done < slots do
    let upto = min slots (!slots_done + traffic_chunk) in
    let results, _ =
      span c "supervise.map" (fun () ->
          Supervise.map ~label_of:(fun i -> "demand/" ^ names.(i)) ~jobs:1
            ~base_seed:(Runner.job_seed tseed (slots + !slots_done))
            (fun ~obs:_ ~seed:_ ~watchdog (i, bytes) ->
              span c "supervise.job" (fun () ->
                  let t = restore c (fun () -> Traffic_sim.restore sims.(i) bytes) in
                  let slot_span = Printf.sprintf "traffic.%s.slot" names.(i) in
                  alloc c (Printf.sprintf "traffic.%s.alloc_mw" names.(i)) (fun () ->
                      for k = Traffic_sim.slot t to upto - 1 do
                        span c slot_span (fun () -> Traffic_sim.advance ~watchdog t ~upto:(k + 1))
                      done);
                  encode c (fun () -> Traffic_sim.encode t)))
            (Array.mapi (fun i b -> (i, b)) statuses))
    in
    settle c statuses results;
    slots_done := upto;
    Array.iteri
      (fun i bytes ->
        check c ("roundtrip " ^ names.(i))
          (span c "checks.roundtrip" (fun () ->
               Traffic_sim.encode (Traffic_sim.restore sims.(i) bytes))
          = bytes))
      statuses
  done;
  let b = Buffer.create 1024 in
  let reports =
    Array.mapi
      (fun i bytes ->
        let t = Traffic_sim.restore sims.(i) bytes in
        Traffic_sim.finish t;
        let r = Traffic_sim.report t in
        let name = names.(i) in
        check c ("flow conservation " ^ name)
          (r.Traffic_sim.flows_admitted + r.Traffic_sim.flows_rejected = tshape.flows);
        let key s = Printf.sprintf "traffic.%s.%s" name s in
        set c (key "flows_completed") (float_of_int r.Traffic_sim.flows_completed);
        set c (key "completion_share")
          (float_of_int r.Traffic_sim.flows_completed
          /. float_of_int (max 1 r.Traffic_sim.flows_admitted));
        set c (key "path_switches") (float_of_int r.Traffic_sim.path_switches);
        add c "flows_completed" (float_of_int r.Traffic_sim.flows_completed);
        Printf.bprintf b "%s %s slots=%d adm=%d rej=%d done=%d left=%d fct=%h \
                          p50=%h p90=%h p99=%h sw=%d mbit=%h util=%h/%h fo=%d bo=%d \
                          aff=%d\n"
          name
          (Sha256.hex (Sha256.digest bytes))
          r.Traffic_sim.slots_done r.Traffic_sim.flows_admitted r.Traffic_sim.flows_rejected
          r.Traffic_sim.flows_completed r.Traffic_sim.flows_unfinished r.Traffic_sim.mean_fct_s
          r.Traffic_sim.fct.Histogram.p50 r.Traffic_sim.fct.Histogram.p90
          r.Traffic_sim.fct.Histogram.p99 r.Traffic_sim.path_switches
          r.Traffic_sim.delivered_mbit r.Traffic_sim.mean_utilization
          r.Traffic_sim.max_utilization r.Traffic_sim.recovery.Recovery.failovers
          r.Traffic_sim.recovery.Recovery.blackouts
          r.Traffic_sim.recovery.Recovery.affected_pairs;
        (name, r))
      statuses
  in
  (Array.to_list reports, digest_of b)
