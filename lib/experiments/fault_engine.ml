type config = {
  graph : Graph.t;
  beacon : Beaconing.config;
  plan : Fault_plan.t;
  pairs : (int * int) array;
}

type reaction =
  | Unaffected
  | Failover of { delay_s : float; spares : int }
  | Blackout

(* The SCMP notification travels back from the failure, one hop per link
   up to the last failed link on the first affected path (§4.1). *)
let react failed paths =
  let crosses (p : Pcb.t) = Array.exists failed p.Pcb.links in
  match List.find_opt crosses paths with
  | None -> Unaffected
  | Some p -> (
      match List.length (List.filter (fun q -> not (crosses q)) paths) with
      | 0 -> Blackout
      | spares ->
          let hops = ref 0 in
          Array.iteri (fun i x -> if failed x then hops := i + 1) p.Pcb.links;
          let delay_s = float_of_int !hops *. Bgp_sim.propagation_delay in
          Failover { delay_s; spares })

(* One SCMP notification per notified endpoint plus the one that
   reaches the path server (§4.1). *)
let revocation lk ~now ~notified =
  let msg = Scmp.link_failure lk ~origin_as:lk.Graph.a ~now in
  let msgs = notified + 1 in
  (msgs, msgs * Scmp.wire_bytes msg)

(* --- the fault-gated beaconing loop ----------------------------------- *)

type counts = {
  link_failures : int;
  link_repairs : int;
  pcbs_dropped : int;
  segments_revoked : int;
}

type driver = {
  cfg : config;
  register : int;
  eng : Beaconing.engine;
  links : Link_state.t;
  events : Fault_plan.event array;
  mutable cursor : int;
  ps : Path_server.t;
  fwd_keys : Fwd_keys.t;
  mutable counts : counts;
}

(* Only state read back from a snapshot can fail these checks. *)
let make cfg ~register ~eng ~links ~ps ~cursor ~counts =
  let events = Fault_plan.compile ~graph:cfg.graph cfg.plan in
  if Link_state.n_links links <> Graph.num_links cfg.graph then
    raise (Snapshot.Corrupt "fault driver: link count / graph mismatch");
  if cursor < 0 || cursor > Array.length events then
    raise (Snapshot.Corrupt "fault driver: fault cursor out of range");
  let fwd_keys = Fwd_keys.create () in
  { cfg; register; eng; links; events; cursor; ps; fwd_keys; counts }

let driver ?obs cfg ps ~register =
  make cfg ~register
    ~eng:(Beaconing.engine ?obs cfg.graph cfg.beacon)
    ~links:(Link_state.create ~n_links:(Graph.num_links cfg.graph))
    ~ps ~cursor:0
    ~counts:
      {
        link_failures = 0;
        link_repairs = 0;
        pcbs_dropped = 0;
        segments_revoked = 0;
      }

let engine d = d.eng

let path_server d = d.ps

let counts d = d.counts

let replay ?(on_down = fun ~now:_ ~link:_ _ -> ())
    ?(on_up = fun ~now:_ ~link:_ -> ()) d ~until =
  let on_down ~now ~link =
    let after = on_down ~now ~link in
    let stores = Beaconing.engine_stores d.eng in
    let dropped =
      Array.fold_left (fun n st -> n + Beacon_store.drop_link st ~link) 0 stores
    in
    let revoked = Path_server.revoke_link d.ps ~link in
    let c = d.counts in
    d.counts <-
      {
        c with
        link_failures = c.link_failures + 1;
        pcbs_dropped = c.pcbs_dropped + dropped;
        segments_revoked = c.segments_revoked + revoked;
      };
    after (dropped, revoked)
  in
  let on_up ~now ~link =
    d.counts <- { d.counts with link_repairs = d.counts.link_repairs + 1 };
    on_up ~now ~link
  in
  d.cursor <-
    Link_state.replay d.links d.events ~from:d.cursor ~until ~on_down ~on_up

let step ?on_down ?on_up d ~round on_pair =
  let now = float_of_int round *. d.cfg.beacon.Beaconing.interval in
  replay ?on_down ?on_up d ~until:now;
  Beaconing.engine_round ~link_up:(Link_state.up d.links) d.eng ~round;
  let stores = Beaconing.engine_stores d.eng in
  Array.iteri
    (fun i (s, o) ->
      let paths = Beacon_store.paths stores.(s) ~now ~origin:o in
      Path_server.register_best_core d.ps d.cfg.graph d.fwd_keys ~now ~holder:s
        ~k:d.register paths;
      on_pair ~now i paths)
    d.cfg.pairs

let invariant_ctx d ~now =
  {
    Invariants.graph = d.cfg.graph;
    now;
    links = d.links;
    stores = Beaconing.engine_stores d.eng;
    path_server = Some d.ps;
    events = d.events;
    cursor = d.cursor;
  }

let write w d =
  Snapshot.w_int w d.cursor;
  Snapshot.w_int w d.counts.link_failures;
  Snapshot.w_int w d.counts.link_repairs;
  Snapshot.w_int w d.counts.pcbs_dropped;
  Snapshot.w_int w d.counts.segments_revoked;
  Beaconing.write w d.eng;
  Link_state.write w d.links;
  Path_server.write w d.ps

let read r cfg ~register =
  let cursor = Snapshot.r_int r in
  let link_failures = Snapshot.r_int r in
  let link_repairs = Snapshot.r_int r in
  let pcbs_dropped = Snapshot.r_int r in
  let segments_revoked = Snapshot.r_int r in
  let eng = Beaconing.read r cfg.graph cfg.beacon in
  let links = Link_state.read r in
  make cfg ~register ~eng ~links ~ps:(Path_server.read r) ~cursor
    ~counts:{ link_failures; link_repairs; pcbs_dropped; segments_revoked }

(* --- resilience trials ------------------------------------------------ *)

type result = {
  recovery : Recovery.summary;
  violations : Invariants.violation list;
  validated_pairs : int;
  validated_delivered : int;
  validated_failovers : int;
}

let run ?(obs = Obs.disabled) cfg =
  let recov = Recovery.create () in
  let d =
    driver ~obs cfg (Path_server.create ~obs ())
      ~register:Beacon_policy.dissemination_limit
  in
  let stores = Beaconing.engine_stores d.eng in
  let trace level ~now msg fields =
    let tr = Obs.trace obs in
    if Obs.on obs && Trace.enabled tr level then
      Trace.emit tr level ~time:now ~category:"fault" ~fields:(fields ()) msg
  in
  (* Each pair reacts from its pre-drop path set; the pairs the failure
     hits are notified, which sets the revocation cost. *)
  let on_down ~now ~link =
    Recovery.record_event recov ~action:Fault_plan.Down;
    let notified = ref 0 in
    let notify pair =
      Recovery.record_affected recov ~pair;
      incr notified
    in
    Array.iter
      (fun ((s, o) as pair) ->
        let paths = Beacon_store.paths stores.(s) ~now ~origin:o in
        match react (Int.equal link) paths with
        | Unaffected -> ()
        | Failover { delay_s; _ } ->
            notify pair;
            Recovery.record_failover recov ~recovery_s:delay_s
        | Blackout ->
            notify pair;
            Recovery.open_blackout recov ~now ~pair)
      cfg.pairs;
    fun (dropped, revoked) ->
      Recovery.record_dropped_pcbs recov dropped;
      let msgs, bytes =
        revocation (Graph.link cfg.graph link) ~now ~notified:!notified
      in
      Recovery.record_revocation recov ~segments:revoked ~msgs ~bytes;
      trace Trace.Warn ~now "link down" (fun () ->
          [
            ("link", string_of_int link);
            ("dropped_pcbs", string_of_int dropped);
            ("revoked_segments", string_of_int revoked);
            ("notified", string_of_int !notified);
          ])
  in
  let on_up ~now ~link =
    Recovery.record_event recov ~action:Fault_plan.Up;
    trace Trace.Info ~now "link repaired" (fun () ->
        [ ("link", string_of_int link) ])
  in
  for round = 0 to (Beaconing.engine_stats d.eng).Beaconing.rounds - 1 do
    step ~on_down ~on_up d ~round (fun ~now i paths ->
        (* Re-beaconing found a path again: the blackout (if any) ends. *)
        if paths <> [] then
          Recovery.close_blackout recov ~now ~pair:cfg.pairs.(i))
  done;
  let outcome = Beaconing.engine_outcome d.eng in
  Beaconing.observe obs outcome;
  (* Events past the last round (repairs, late failures) still count. *)
  let horizon = cfg.beacon.Beaconing.duration in
  replay ~on_down ~on_up d ~until:horizon;
  Recovery.finish recov ~now:horizon;
  (* Validation pass: resolve and forward end-to-end over the surviving
     topology, with still-down links failed at the routers. *)
  let validated_pairs, validated_delivered, validated_failovers =
    Obs.phase obs "faults.validation" (fun () ->
        let cs = Control_service.build ~core:outcome ~intra:outcome () in
        let net = Forwarding.network cfg.graph (Control_service.keys cs) in
        List.iter (Forwarding.fail_link net) (Link_state.down_links d.links);
        let now = Control_service.now cs in
        let pairs =
          List.filter (fun (s, o) -> s <> o) (Array.to_list cfg.pairs)
        in
        let delivered = ref 0 and failovers = ref 0 in
        List.iter
          (fun (s, o) ->
            let ep = Endpoint.create cs net ~src:s ~dst:o in
            (match Endpoint.send ep ~now () with
            | Forwarding.Delivered _ -> incr delivered
            | Forwarding.Dropped _ -> ());
            failovers := !failovers + Endpoint.failovers ep)
          pairs;
        (List.length pairs, !delivered, !failovers))
  in
  Recovery.observe obs recov;
  {
    recovery = Recovery.summary recov;
    violations = Invariants.check_all (invariant_ctx d ~now:horizon);
    validated_pairs;
    validated_delivered;
    validated_failovers;
  }
