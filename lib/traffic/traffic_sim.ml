type config = {
  graph : Graph.t;
  paths : Fwd_path.t array array;
  latency_ms : float array;
  demand : Demand.t;
  strategy : Strategy.t;
  width : int;
  plan : Fault_plan.t;
  capacity_scale : float;
  slot_s : float;
  slots : int;
  adapt_margin : float;
  metric_labels : (string * string) list;
}

type flow = {
  id : int;
  pair : int;
  arrival_s : float;
  mutable remaining : float;  (** Mbit left to transfer *)
  mutable sel : int array;  (** offered-path indices; [||] = stalled *)
  mutable switches : int;
}

type state = {
  mutable slot : int;
  mutable cursor : int;  (** consumed fault events *)
  mutable next_arrival : int;
  mutable rejected : int;
  mutable active : flow array;
      (** admission order; the first [n_active] are the active flows,
          the rest {!vacant} *)
  mutable n_active : int;
  links : Link_state.t;
  load : Link_load.t;
  delivered : float array;  (** Mbit carried, per link *)
  recov : Recovery.t;
  metrics : Registry.t;
  mutable completed : int;
  mutable fct_sum : float;
  mutable switches_total : int;
  mutable finished : bool;
}

(* Besides the state, a simulation holds one selection table per pair,
   derived from the config. It is not snapshotted: {!make} builds the
   tables again on every create and restore. *)
type t = {
  config : config;
  events : Fault_plan.event array;
  ctx : Strategy.ctx;
  offers : Strategy.offer array;  (** per pair: the selection table *)
  state : state;
  mutable shares : float array;
      (** scratch for {!progress}: one rate per active subflow *)
  fct_h : Histogram.t;
  util_h : Histogram.t;
  switch_h : Histogram.t;
  admitted_c : float ref;
  completed_c : float ref;
}

(* Fills the active array past its last active flow; never mutated. *)
let vacant =
  {
    id = -1;
    pair = -1;
    arrival_s = 0.0;
    remaining = 0.0;
    sel = [||];
    switches = 0;
  }

let fct_metric = "traffic_fct_s"

let util_metric = "traffic_link_utilization"

let switch_metric = "traffic_path_switches"

let validate cfg =
  let n_pairs = Array.length (Demand.pairs cfg.demand) in
  if Array.length cfg.paths <> n_pairs then
    invalid_arg "Traffic_sim.create: offered path sets / demand pairs mismatch";
  if Array.length cfg.latency_ms <> Graph.num_links cfg.graph then
    invalid_arg "Traffic_sim.create: latency table / link count mismatch";
  if cfg.width < 1 then invalid_arg "Traffic_sim.create: width < 1";
  if not (cfg.slot_s > 0.0) then invalid_arg "Traffic_sim.create: slot_s <= 0";
  if cfg.slots < 0 then invalid_arg "Traffic_sim.create: slots < 0";
  if not (cfg.capacity_scale > 0.0) then
    invalid_arg "Traffic_sim.create: capacity_scale <= 0"

let make t_of_state cfg =
  validate cfg;
  let metrics = t_of_state.metrics in
  (* Eagerly create every series so reading a report never changes the
     registry (and thus never perturbs a re-saved snapshot). *)
  let labels = cfg.metric_labels in
  let fct_h = Registry.histogram metrics ~labels fct_metric in
  let util_h = Registry.histogram metrics ~labels util_metric in
  let switch_h = Registry.histogram metrics ~labels switch_metric in
  let admitted_c =
    Registry.counter metrics ~labels "traffic_flows_admitted_total"
  in
  let completed_c =
    Registry.counter metrics ~labels "traffic_flows_completed_total"
  in
  let ctx = Strategy.ctx ~latency_ms:cfg.latency_ms t_of_state.load in
  {
    config = cfg;
    events = Fault_plan.compile ~graph:cfg.graph cfg.plan;
    ctx;
    offers = Array.map (Strategy.offer ctx) cfg.paths;
    state = t_of_state;
    shares = [||];
    fct_h;
    util_h;
    switch_h;
    admitted_c;
    completed_c;
  }

let create cfg =
  validate cfg;
  let state =
    {
      slot = 0;
      cursor = 0;
      next_arrival = 0;
      rejected = 0;
      active = [||];
      n_active = 0;
      links = Link_state.create ~n_links:(Graph.num_links cfg.graph);
      load = Link_load.create ~capacity_scale:cfg.capacity_scale cfg.graph;
      delivered = Array.make (Graph.num_links cfg.graph) 0.0;
      recov = Recovery.create ();
      metrics = Registry.create ();
      completed = 0;
      fct_sum = 0.0;
      switches_total = 0;
      finished = false;
    }
  in
  make state cfg

let slot t = t.state.slot

let registry t = t.state.metrics

let recovery t = t.state.recov

(* --- path bookkeeping ------------------------------------------------- *)

let links_of t pair i = t.config.paths.(pair).(i).Fwd_path.links

let add_sel t f =
  for j = 0 to Array.length f.sel - 1 do
    Link_load.add_path t.state.load (links_of t f.pair f.sel.(j))
  done

let remove_sel t f =
  for j = 0 to Array.length f.sel - 1 do
    Link_load.remove_path t.state.load (links_of t f.pair f.sel.(j))
  done

let path_alive t (p : Fwd_path.t) =
  let links = p.Fwd_path.links in
  let rec from x =
    x >= Array.length links
    || (Link_state.up t.state.links links.(x) && from (x + 1))
  in
  from 0

(* Run the configured strategy over the pair's offered paths that
   [usable] accepts, returning indices into the full offered set. *)
let select t ~usable pair =
  Strategy.select t.config.strategy t.ctx ~usable ~width:t.config.width
    t.offers.(pair)

let select_alive t pair = select t ~usable:(path_alive t) pair

let same_sel a b =
  let n = Array.length a in
  let rec from i = i >= n || (a.(i) = b.(i) && from (i + 1)) in
  n = Array.length b && from 0

(* --- active flows ----------------------------------------------------- *)

let push_active st f =
  if st.n_active = Array.length st.active then begin
    let grown = Array.make (max 16 (2 * st.n_active)) vacant in
    Array.blit st.active 0 grown 0 st.n_active;
    st.active <- grown
  end;
  st.active.(st.n_active) <- f;
  st.n_active <- st.n_active + 1

let iter_active f st =
  for k = 0 to st.n_active - 1 do
    f st.active.(k)
  done

(* --- fault reactions -------------------------------------------------- *)

(* Flow [f], holding no load, has lost a path it wanted: its endpoint
   learns so from the SCMP and chooses again among the live paths. With
   none left the flow stalls in a blackout until {!on_up} places it;
   otherwise it fails over, and the recovery delay is the failure
   notification travelling the new first path back to the source. *)
let fail_over t f ~now =
  let st = t.state in
  Recovery.record_affected st.recov
    ~pair:(Demand.pairs t.config.demand).(f.pair);
  let sel = select_alive t f.pair in
  f.sel <- sel;
  if Array.length sel = 0 then
    Recovery.open_blackout st.recov ~now ~pair:(f.id, 0)
  else begin
    add_sel t f;
    f.switches <- f.switches + 1;
    st.switches_total <- st.switches_total + 1;
    let lat = Strategy.latency t.offers.(f.pair) sel.(0) in
    Recovery.record_failover st.recov ~recovery_s:(lat /. 1000.0)
  end

let on_down t ~now ~link =
  let st = t.state in
  Recovery.record_event st.recov ~action:Fault_plan.Down;
  iter_active
    (fun f ->
      if
        Array.exists
          (fun i -> Fwd_path.contains_link t.config.paths.(f.pair).(i) link)
          f.sel
      then begin
        remove_sel t f;
        fail_over t f ~now
      end)
    st

let on_up t ~now ~link:_ =
  let st = t.state in
  Recovery.record_event st.recov ~action:Fault_plan.Up;
  iter_active
    (fun f ->
      if Array.length f.sel = 0 then begin
        f.sel <- select_alive t f.pair;
        if Array.length f.sel > 0 then begin
          add_sel t f;
          Recovery.close_blackout st.recov ~now ~pair:(f.id, 0)
        end
      end)
    st

(* --- one slot --------------------------------------------------------- *)

let reconsider t f =
  if Array.length f.sel > 0 then begin
    let st = t.state in
    remove_sel t f;
    let cand = select_alive t f.pair in
    (if Array.length cand > 0 && not (same_sel cand f.sel) then begin
       let offer = t.offers.(f.pair) in
       let cur = Strategy.estimate t.ctx offer f.sel in
       let better = Strategy.estimate t.ctx offer cand in
       if better > t.config.adapt_margin *. cur then begin
         f.sel <- cand;
         f.switches <- f.switches + 1;
         st.switches_total <- st.switches_total + 1
       end
     end);
    add_sel t f
  end

let admit t ~t1 =
  let st = t.state in
  let arrivals = Demand.sorted_flows t.config.demand in
  let n = Array.length arrivals in
  while
    st.next_arrival < n && arrivals.(st.next_arrival).Demand.arrival_s < t1
  do
    let spec = arrivals.(st.next_arrival) in
    let id = st.next_arrival in
    st.next_arrival <- st.next_arrival + 1;
    if Array.length t.config.paths.(spec.Demand.pair) = 0 then
      (* The control plane produced nothing for this pair: the flow is
         unservable, not faulted. *)
      st.rejected <- st.rejected + 1
    else begin
      t.admitted_c := !(t.admitted_c) +. 1.0;
      let f =
        {
          id;
          pair = spec.Demand.pair;
          arrival_s = spec.Demand.arrival_s;
          remaining = spec.Demand.size_mbit;
          sel = [||];
          switches = 0;
        }
      in
      (* The endpoint holds the full, possibly stale, path set and puts
         the flow on its preferred selection. If that touches a dead
         link, it learns so from the SCMP on first use and fails over
         like a flow in {!on_down}. *)
      let offered = t.config.paths.(f.pair) in
      let pref = select t ~usable:(fun _ -> true) f.pair in
      if Array.for_all (fun i -> path_alive t offered.(i)) pref then begin
        f.sel <- pref;
        add_sel t f
      end
      else fail_over t f ~now:f.arrival_s;
      push_active st f
    end
  done

(* Credit [dur] seconds of flow [f]'s subflows, at the rates stored in
   [t.shares] from [off] on, to the links they ride. *)
let deliver t f off dur =
  let delivered = t.state.delivered in
  for j = 0 to Array.length f.sel - 1 do
    let r = t.shares.(off + j) in
    let links = links_of t f.pair f.sel.(j) in
    for x = 0 to Array.length links - 1 do
      let l = links.(x) in
      delivered.(l) <- delivered.(l) +. (r *. dur)
    done
  done

let progress t ~t0 ~t1 =
  let st = t.state in
  let n = st.n_active in
  if n > 0 then begin
    (* Rates snapshot first: completions release capacity only at the
       next slot, so a flow's rate cannot depend on its position in
       the active array. *)
    let subflows = ref 0 in
    iter_active (fun f -> subflows := !subflows + Array.length f.sel) st;
    if Array.length t.shares < !subflows then
      t.shares <- Array.make (max !subflows (2 * Array.length t.shares)) 0.0;
    let off = ref 0 in
    iter_active
      (fun f ->
        for j = 0 to Array.length f.sel - 1 do
          Link_load.fair_share_into st.load
            (links_of t f.pair f.sel.(j))
            t.shares (!off + j)
        done;
        off := !off + Array.length f.sel)
      st;
    (* Then compact the survivors in place, in admission order. *)
    let kept = ref 0 and off = ref 0 in
    for k = 0 to n - 1 do
      let f = st.active.(k) in
      let n_sub = Array.length f.sel in
      let rate = ref 0.0 in
      for j = 0 to n_sub - 1 do
        rate := !rate +. t.shares.(!off + j)
      done;
      let rate = !rate in
      let keep =
        if rate <= 0.0 then true
        else begin
          let start = Float.max t0 f.arrival_s in
          let dt = t1 -. start in
          if rate *. dt >= f.remaining then begin
            let dur = f.remaining /. rate in
            deliver t f !off dur;
            let fct = start +. dur -. f.arrival_s in
            Histogram.observe t.fct_h fct;
            Histogram.observe t.switch_h (float_of_int f.switches);
            t.completed_c := !(t.completed_c) +. 1.0;
            st.completed <- st.completed + 1;
            st.fct_sum <- st.fct_sum +. fct;
            remove_sel t f;
            f.sel <- [||];
            false
          end
          else begin
            deliver t f !off dt;
            f.remaining <- f.remaining -. (rate *. dt);
            true
          end
        end
      in
      off := !off + n_sub;
      if keep then begin
        st.active.(!kept) <- f;
        incr kept
      end
    done;
    Array.fill st.active !kept (n - !kept) vacant;
    st.n_active <- !kept
  end

let advance ?watchdog t ~upto =
  let st = t.state in
  let cfg = t.config in
  if st.finished then invalid_arg "Traffic_sim.advance: already finished";
  let upto = min upto cfg.slots in
  if st.slot < upto then begin
    for s = st.slot to upto - 1 do
      let t0 = float_of_int s *. cfg.slot_s in
      let t1 = t0 +. cfg.slot_s in
      st.cursor <-
        Link_state.replay st.links t.events ~from:st.cursor ~until:t0
          ~on_down:(on_down t) ~on_up:(on_up t);
      if cfg.strategy = Strategy.Load_adaptive && cfg.adapt_margin > 1.0 then
        iter_active (reconsider t) st;
      admit t ~t1;
      progress t ~t0 ~t1;
      st.slot <- s + 1;
      (* Check the deadline only at slot boundaries: a timed-out job is
         abandoned with consistent state. *)
      match watchdog with Some w -> Watchdog.check w | None -> ()
    done
  end

let finish t =
  let st = t.state in
  if not st.finished then begin
    st.finished <- true;
    let elapsed = float_of_int st.slot *. t.config.slot_s in
    Recovery.finish st.recov ~now:elapsed;
    if elapsed > 0.0 then
      Array.iteri
        (fun l d ->
          if d > 0.0 then
            Histogram.observe t.util_h
              (d /. (Link_load.capacity_mbps st.load l *. elapsed)))
        st.delivered
  end

(* --- snapshot --------------------------------------------------------- *)

let encode t =
  let st = t.state in
  let w = Snapshot.writer () in
  Snapshot.w_int w st.slot;
  Snapshot.w_int w st.cursor;
  Snapshot.w_int w st.next_arrival;
  Snapshot.w_int w st.rejected;
  Snapshot.w_int w st.completed;
  Snapshot.w_f64 w st.fct_sum;
  Snapshot.w_int w st.switches_total;
  Snapshot.w_bool w st.finished;
  Snapshot.w_arr w
    (fun w f ->
      Snapshot.w_int w f.id;
      Snapshot.w_int w f.pair;
      Snapshot.w_f64 w f.arrival_s;
      Snapshot.w_f64 w f.remaining;
      Snapshot.w_arr w Snapshot.w_int f.sel;
      Snapshot.w_int w f.switches)
    (Array.sub st.active 0 st.n_active);
  Link_state.write w st.links;
  Snapshot.w_arr w Snapshot.w_f64 st.delivered;
  Recovery.write w st.recov;
  Registry.write w st.metrics;
  Snapshot.contents w

let restore cfg data =
  validate cfg;
  let r = Snapshot.reader data in
  let slot = Snapshot.r_int r in
  let cursor = Snapshot.r_int r in
  let next_arrival = Snapshot.r_int r in
  let rejected = Snapshot.r_int r in
  let completed = Snapshot.r_int r in
  let fct_sum = Snapshot.r_f64 r in
  let switches_total = Snapshot.r_int r in
  let finished = Snapshot.r_bool r in
  let active =
    Snapshot.r_arr r (fun r ->
        let id = Snapshot.r_int r in
        let pair = Snapshot.r_int r in
        let arrival_s = Snapshot.r_f64 r in
        let remaining = Snapshot.r_f64 r in
        let sel = Snapshot.r_arr r Snapshot.r_int in
        let switches = Snapshot.r_int r in
        { id; pair; arrival_s; remaining; sel; switches })
  in
  let links = Link_state.read r in
  let delivered = Snapshot.r_arr r Snapshot.r_f64 in
  let recov = Recovery.read r in
  let metrics = Registry.read r in
  Snapshot.r_end r;
  let corrupt msg = raise (Snapshot.Corrupt ("traffic snapshot: " ^ msg)) in
  let n_pairs = Array.length (Demand.pairs cfg.demand) in
  if Link_state.n_links links <> Graph.num_links cfg.graph then
    corrupt "link count / graph mismatch";
  if Array.length delivered <> Graph.num_links cfg.graph then
    corrupt "delivered array / graph mismatch";
  if slot < 0 || slot > cfg.slots then corrupt "slot out of range";
  if next_arrival < 0 || next_arrival > (Demand.params cfg.demand).Demand.flows
  then corrupt "arrival cursor out of range";
  let load = Link_load.create ~capacity_scale:cfg.capacity_scale cfg.graph in
  Array.iter
    (fun f ->
      if f.pair < 0 || f.pair >= n_pairs then corrupt "flow pair out of range";
      Array.iter
        (fun i ->
          if i < 0 || i >= Array.length cfg.paths.(f.pair) then
            corrupt "flow path index out of range")
        f.sel;
      (* Link loads are derived state: replay the active selections. *)
      Array.iter
        (fun i -> Link_load.add_path load cfg.paths.(f.pair).(i).Fwd_path.links)
        f.sel)
    active;
  let state =
    {
      slot;
      cursor;
      next_arrival;
      rejected;
      active;
      n_active = Array.length active;
      links;
      load;
      delivered;
      recov;
      metrics;
      completed;
      fct_sum;
      switches_total;
      finished;
    }
  in
  (* [make] binds the metric handles: a series of the wrong kind, or
     one it has to create, means the registry was corrupted. *)
  let series () = List.length (Registry.snapshot metrics) in
  let n_series = series () in
  let t =
    match make state cfg with
    | t -> t
    | exception Invalid_argument msg -> corrupt msg
  in
  if series () <> n_series then corrupt "metric series missing";
  if cursor < 0 || cursor > Array.length t.events then
    corrupt "fault cursor out of range";
  t

let config_key cfg =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "graph:%d/%d;" (Graph.n cfg.graph) (Graph.num_links cfg.graph);
  for l = 0 to Graph.num_links cfg.graph - 1 do
    let lk = Graph.link cfg.graph l in
    add "%d-%d/%h;" lk.Graph.a lk.Graph.b cfg.latency_ms.(l)
  done;
  Array.iter
    (fun offered ->
      add "pair:";
      Array.iter (fun p -> add "%s;" (Fwd_path.key p)) offered)
    cfg.paths;
  add "demand:%s;" (Demand.config_key cfg.demand);
  add "strategy:%s/%d/%h;" (Strategy.name cfg.strategy) cfg.width
    cfg.adapt_margin;
  add "knobs:%h/%h/%d;" cfg.capacity_scale cfg.slot_s cfg.slots;
  Buffer.add_string b (Fault_plan.fingerprint ~graph:cfg.graph cfg.plan);
  List.iter (fun (k, v) -> add "label:%s=%s;" k v) cfg.metric_labels;
  Buffer.contents b

(* --- report ----------------------------------------------------------- *)

type report = {
  slots_done : int;
  flows_admitted : int;
  flows_rejected : int;
  flows_completed : int;
  flows_unfinished : int;
  mean_fct_s : float;
  fct : Histogram.summary;
  path_switches : int;
  delivered_mbit : float;
  mean_utilization : float;
  max_utilization : float;
  recovery : Recovery.summary;
}

let report t =
  let st = t.state in
  let elapsed = float_of_int st.slot *. t.config.slot_s in
  let used = ref 0 and util_sum = ref 0.0 and util_max = ref 0.0 in
  if elapsed > 0.0 then
    Array.iteri
      (fun l d ->
        if d > 0.0 then begin
          let u = d /. (Link_load.capacity_mbps st.load l *. elapsed) in
          incr used;
          util_sum := !util_sum +. u;
          if u > !util_max then util_max := u
        end)
      st.delivered;
  {
    slots_done = st.slot;
    flows_admitted = st.next_arrival - st.rejected;
    flows_rejected = st.rejected;
    flows_completed = st.completed;
    flows_unfinished = st.n_active;
    mean_fct_s =
      (if st.completed = 0 then Float.nan
       else st.fct_sum /. float_of_int st.completed);
    fct = Histogram.summarize t.fct_h;
    path_switches = st.switches_total;
    delivered_mbit = Array.fold_left ( +. ) 0.0 st.delivered;
    mean_utilization =
      (if !used = 0 then 0.0 else !util_sum /. float_of_int !used);
    max_utilization = !util_max;
    recovery = Recovery.summary st.recov;
  }
