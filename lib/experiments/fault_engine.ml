type config = {
  graph : Graph.t;
  beacon : Beaconing.config;
  plan : Fault_plan.t;
  pairs : (int * int) array;
}

type result = {
  recovery : Recovery.summary;
  validated_pairs : int;
  validated_delivered : int;
  validated_failovers : int;
}

let on_path link (p : Pcb.t) = Array.exists (fun x -> x = link) p.Pcb.links

(* The hops an SCMP notification travels back to the source: the
   1-based position of the last failed link on the first affected path
   (1 when none is affected). *)
let failure_distance failed paths =
  let affected (p : Pcb.t) = Array.exists failed p.Pcb.links in
  match List.find_opt affected paths with
  | None -> 1
  | Some p ->
      let pos = ref 0 in
      Array.iteri (fun i x -> if failed x then pos := i) p.Pcb.links;
      !pos + 1

let failover_delay_s failed paths =
  float_of_int (failure_distance failed paths) *. Bgp_sim.propagation_delay

let invalidate_link stores ps ~link =
  let dropped =
    Array.fold_left (fun acc st -> acc + Beacon_store.drop_link st ~link) 0 stores
  in
  (dropped, Path_server.revoke_link ps ~link)

(* One SCMP notification per notified endpoint plus the one that
   reaches the path server (§4.1). *)
let revocation lk ~now ~notified =
  let msg = Scmp.link_failure lk ~origin_as:lk.Graph.a ~now in
  let msgs = notified + 1 in
  (msgs, msgs * Scmp.wire_bytes msg)

let run ?(obs = Obs.disabled) cfg =
  let g = cfg.graph in
  let obs_on = Obs.on obs in
  let tr = Obs.trace obs in
  let state = Link_state.create ~n_links:(Graph.num_links g) in
  let recov = Recovery.create () in
  let ps = Path_server.create ~obs () in
  let reg_keys = Fwd_keys.create () in
  let eng = Beaconing.engine ~obs g cfg.beacon in
  let stores = Beaconing.engine_stores eng in
  let on_down ~now ~link =
    Recovery.record_event recov ~action:Fault_plan.Down;
    (* Which monitored pairs were riding the link? Decide failover vs
       blackout from the pre-drop path sets. *)
    let notified = ref 0 in
    Array.iter
      (fun (s, d) ->
        let paths = Beacon_store.paths stores.(s) ~now ~origin:d in
        let affected = List.filter (on_path link) paths in
        if affected <> [] then begin
          Recovery.record_affected recov ~pair:(s, d);
          incr notified;
          if List.compare_lengths paths affected = 0 then
            Recovery.open_blackout recov ~now ~pair:(s, d)
          else
            Recovery.record_failover recov
              ~recovery_s:(failover_delay_s (Int.equal link) paths)
        end)
      cfg.pairs;
    let dropped, revoked = invalidate_link stores ps ~link in
    Recovery.record_dropped_pcbs recov dropped;
    let msgs, bytes = revocation (Graph.link g link) ~now ~notified:!notified in
    Recovery.record_revocation recov ~segments:revoked ~msgs ~bytes;
    if obs_on && Trace.enabled tr Trace.Warn then
      Trace.emit tr Trace.Warn ~time:now ~category:"fault"
        ~fields:
          [
            ("link", string_of_int link);
            ("dropped_pcbs", string_of_int dropped);
            ("revoked_segments", string_of_int revoked);
            ("notified", string_of_int !notified);
          ]
        "link down"
  in
  let on_up ~now ~link =
    Recovery.record_event recov ~action:Fault_plan.Up;
    if obs_on && Trace.enabled tr Trace.Info then
      Trace.emit tr Trace.Info ~time:now ~category:"fault"
        ~fields:[ ("link", string_of_int link) ]
        "link repaired"
  in
  let events = Fault_plan.compile ~graph:g cfg.plan in
  let cursor = ref 0 in
  let replay ~until =
    cursor :=
      Link_state.replay state events ~from:!cursor ~until ~on_down ~on_up
  in
  for r = 0 to (Beaconing.engine_stats eng).Beaconing.rounds - 1 do
    let now = float_of_int r *. cfg.beacon.Beaconing.interval in
    replay ~until:now;
    Beaconing.engine_round ~link_up:(Link_state.up state) eng ~round:r;
    Array.iter
      (fun (s, d) ->
        let paths = Beacon_store.paths stores.(s) ~now ~origin:d in
        (* Re-beaconing found a path again: the blackout (if any) ends. *)
        if paths <> [] then Recovery.close_blackout recov ~now ~pair:(s, d);
        Path_server.register_best_core ps g reg_keys ~now ~holder:s
          ~k:Beacon_policy.dissemination_limit paths)
      cfg.pairs
  done;
  let outcome = Beaconing.engine_outcome eng in
  Beaconing.observe obs outcome;
  (* Events past the last round (repairs, late failures) still count. *)
  let horizon = cfg.beacon.Beaconing.duration in
  replay ~until:horizon;
  Recovery.finish recov ~now:horizon;
  (* Validation pass: resolve and forward end-to-end over the surviving
     topology, with still-down links failed at the routers. *)
  let validated_pairs, validated_delivered, validated_failovers =
    Obs.phase obs "faults.validation" (fun () ->
        let cs = Control_service.build ~core:outcome ~intra:outcome () in
        let net = Forwarding.network g (Control_service.keys cs) in
        List.iter (Forwarding.fail_link net) (Link_state.down_links state);
        let now = Control_service.now cs in
        let total = ref 0 and delivered = ref 0 and failovers = ref 0 in
        Array.iter
          (fun (s, d) ->
            if s <> d then begin
              incr total;
              let ep = Endpoint.create cs net ~src:s ~dst:d in
              (match Endpoint.send ep ~now () with
              | Forwarding.Delivered _ -> incr delivered
              | Forwarding.Dropped _ -> ());
              failovers := !failovers + Endpoint.failovers ep
            end)
          cfg.pairs;
        (!total, !delivered, !failovers))
  in
  Recovery.observe obs recov;
  {
    recovery = Recovery.summary recov;
    validated_pairs;
    validated_delivered;
    validated_failovers;
  }
