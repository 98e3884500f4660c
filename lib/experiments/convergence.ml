type failure_sample = {
  link : int;
  bgp_convergence_s : float;
  bgp_updates : int;
  bgp_bytes : float;
  scion_failover_s : float;
  scion_control_messages : int;
  scion_alternatives_ready : int;
}

type result = {
  initial_convergence_s : float;
  initial_updates : int;
  samples : failure_sample list;
}

type config = {
  scale : Exp_common.scale;
  n_failures : int;
  seed : int64;
}

let config ?(n_failures = 5) ?(seed = 0xC0117L) scale = { scale; n_failures; seed }

let name = "convergence"

let doc = "BGP reconvergence vs SCION failover after link failures"

(* An adjacency failure chosen by the selection pass: every parallel
   link between the two ASes goes down (a shared conduit failing), and
   the SCION side of the answer is already known from the beacon
   stores alone. *)
type selected = {
  sel_link : int;
  sel_siblings : int list;
  sel_alternatives : int;
  sel_failover_s : float;
}

(* Sample distinct adjacencies with enough redundancy that both
   protocols survive the failure, via the shared fault-plan sampler
   (one [Rng.int] per attempt, parallel-link groups fail together).
   Consumes only the RNG and the beacon stores, so it is cheap and
   stays sequential; the expensive BGP churn measurements then fan out
   over the selected adjacencies. *)
let select_failures ~rng ~core ~scion ~now ~n_failures =
  Fault_plan.sample_adjacencies ~rng ~count:n_failures core
    ~accept:(fun ~link:lk ~siblings ->
      let s = lk.Graph.a in
      let store = scion.Beaconing.stores.(s) in
      (* The first origin whose paths from [s] the failure hits and that
         has a spare path: its failover is the SCION side of the row. *)
      List.find_map
        (fun d ->
          if d = s then None
          else
            match
              Fault_engine.react
                (fun x -> List.mem x siblings)
                (Beacon_store.paths store ~now ~origin:d)
            with
            | Fault_engine.Failover { delay_s; spares } ->
                Some
                  {
                    sel_link = lk.Graph.link_id;
                    sel_siblings = siblings;
                    sel_alternatives = spares;
                    sel_failover_s = delay_s;
                  }
            | Fault_engine.Unaffected | Fault_engine.Blackout -> None)
        (Beacon_store.origins store))

let run ?(obs = Obs.disabled) ?(jobs = 1) { scale; n_failures; seed } =
  let prepared = Exp_common.prepare scale in
  let core = prepared.Exp_common.core in
  let rng = Rng.create seed in
  (* SCION: one diversity beaconing run; paths are then stable. *)
  let diversity = Variant.diversity (Some 60) in
  let scion =
    Obs.phase obs (Variant.phase name diversity) (fun () ->
        Beaconing.run ~obs core (Variant.config Exp_common.beacon_config diversity))
  in
  let now = Beaconing.end_instant scion.Beaconing.config in
  let selected = select_failures ~rng ~core ~scion ~now ~n_failures in
  (* BGP over the core mesh: full transit, length-only decision (the
     §5.3 best-case model). *)
  let converged ~obs () =
    let bgp = Bgp_sim.create ~obs core in
    Bgp_sim.announce_all bgp;
    let t = Bgp_sim.run_to_quiescence bgp in
    (bgp, t)
  in
  (* Each trial owns a private BGP simulator brought to quiescence from
     scratch, so trials are independent (and parallelisable) instead of
     threading one simulator through fail/restore cycles. A trial gives
     its convergence time and message counts: [None] is the initial
     convergence, [Some s] the churn after [s]'s adjacency fails,
     measured from the converged state. *)
  let trials =
    Runner.map_jobs_obs ~obs ~jobs
      (fun ~obs -> function
        | None ->
            Obs.phase obs "convergence.bgp_initial" (fun () ->
                let bgp, t = converged ~obs () in
                (t, Bgp_sim.stats bgp))
        | Some s ->
            Obs.phase obs "convergence.bgp_failure" (fun () ->
                let bgp, _ = converged ~obs () in
                Bgp_sim.reset_stats bgp;
                let t0 = Bgp_sim.now bgp in
                List.iter (Bgp_sim.fail_link bgp) s.sel_siblings;
                let tq = Bgp_sim.run_to_quiescence bgp in
                (tq -. t0, Bgp_sim.stats bgp)))
      (Array.of_list (None :: List.map Option.some selected))
  in
  let initial_convergence_s, initial = trials.(0) in
  let samples =
    List.mapi
      (fun i s ->
        let dt, (st : Bgp_sim.stats) = trials.(i + 1) in
        {
          link = s.sel_link;
          bgp_convergence_s = dt;
          bgp_updates = st.updates_sent + st.withdrawals_sent;
          bgp_bytes = st.bytes_sent;
          scion_failover_s = s.sel_failover_s;
          scion_control_messages = 0;
          scion_alternatives_ready = s.sel_alternatives;
        })
      selected
  in
  { initial_convergence_s; initial_updates = initial.Bgp_sim.updates_sent; samples }

let to_json (r : result) =
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("initial_convergence_s", Obs_json.Float r.initial_convergence_s);
      ("initial_updates", Obs_json.Int r.initial_updates);
      ( "samples",
        Obs_json.List
          (List.map
             (fun s ->
               Obs_json.Obj
                 [
                   ("link", Obs_json.Int s.link);
                   ("bgp_convergence_s", Obs_json.Float s.bgp_convergence_s);
                   ("bgp_updates", Obs_json.Int s.bgp_updates);
                   ("bgp_bytes", Obs_json.Float s.bgp_bytes);
                   ("scion_failover_s", Obs_json.Float s.scion_failover_s);
                   ("scion_control_messages", Obs_json.Int s.scion_control_messages);
                   ( "scion_alternatives_ready",
                     Obs_json.Int s.scion_alternatives_ready );
                 ])
             r.samples) );
    ]

let print (r : result) =
  Printf.printf "Convergence after link failure — BGP vs SCION (§5 note)\n\n";
  Printf.printf "BGP initial convergence: %.2f s, %d updates\n\n" r.initial_convergence_s
    r.initial_updates;
  Table.print
    ~header:
      [
        "failed adjacency";
        "BGP reconvergence";
        "BGP churn msgs";
        "BGP churn bytes";
        "SCION failover";
        "SCION ctrl msgs";
        "SCION spare paths";
      ]
    ~rows:
      (List.map
         (fun s ->
           [
             string_of_int s.link;
             Printf.sprintf "%.2f s" s.bgp_convergence_s;
             string_of_int s.bgp_updates;
             Printf.sprintf "%.3g" s.bgp_bytes;
             Printf.sprintf "%.0f ms" (1000.0 *. s.scion_failover_s);
             string_of_int s.scion_control_messages;
             string_of_int s.scion_alternatives_ready;
           ])
         r.samples);
  print_newline ();
  print_endline
    "SCION needs no routing convergence: alternates were disseminated in advance;\n\
     the endpoint switches as soon as the SCMP notification arrives (§4.1, §5)."
