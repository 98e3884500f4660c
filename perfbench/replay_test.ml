(* Each benchmark replay equals the scenario it mirrors, run at the same
   reduced configuration with the scenarios' own seeds (workload seed
   0): Fig5.run, Pathdyn.run and the demand cells of Traffic_exp.run.
   Exits 1 on any mismatch. *)

let failures = ref 0

let expect name ok =
  if not ok then incr failures;
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name

let () =
  let c = Work.ctx ~trace:false ~work_dir:"_replay_work" in
  let s = Work.seeds 0 in
  (* Fig. 5 *)
  let series, _ = Work.fig5_run c (Work.fig5_setup c s) in
  let real =
    Fig5.run (Fig5.config ~beacon:(Work.fig5_beacon ~rounds:Work.fig5_rounds) Exp_common.Tiny)
  in
  expect "fig5-overhead = Fig5.run"
    (series = List.map (fun (x : Fig5.series) -> (x.Fig5.name, x.Fig5.ratios)) real.Fig5.series);
  (* Path dynamics *)
  let sh = Work.soak_shape in
  let reports, _ = Work.soak_run c (Work.soak_setup c s) in
  let real =
    Pathdyn.run
      (Pathdyn.config ~rounds:sh.Work.rounds ~chunk:sh.Work.chunk ~profiles:sh.Work.profiles
         ~limits:sh.Work.limits Exp_common.Tiny)
  in
  List.iteri
    (fun i (cell : Pathdyn.cell_result) ->
      let label, (r : Soak.report) = reports.(i) in
      expect
        (Printf.sprintf "pathdyn-soak %s = Pathdyn.run" label)
        (cell.Pathdyn.total_pcbs = r.Soak.total_pcbs
        && cell.Pathdyn.total_bytes = r.Soak.total_bytes
        && cell.Pathdyn.availability_mean = r.Soak.availability_mean
        && cell.Pathdyn.availability_min = r.Soak.availability_min
        && cell.Pathdyn.jaccard_mean = r.Soak.jaccard_overall
        && cell.Pathdyn.survivors = r.Soak.survivors
        && cell.Pathdyn.link_failures = r.Soak.link_failures
        && cell.Pathdyn.link_repairs = r.Soak.link_repairs
        && cell.Pathdyn.pcbs_dropped = r.Soak.pcbs_dropped
        && cell.Pathdyn.segments_revoked = r.Soak.segments_revoked
        && cell.Pathdyn.registrations = r.Soak.ps_stats.Path_server.registrations))
    real.Pathdyn.cells;
  (* Traffic: the scenario's demand cells are single-path, so the replay
     runs both strategies at width 1 here. *)
  let shape =
    {
      Work.traffic_shape with
      Work.cells = [ (Strategy.Latency_greedy, 1); (Strategy.Load_adaptive, 1) ];
    }
  in
  let reports, _ = Work.traffic_run c (Work.traffic_setup ~shape c s) in
  let real =
    Traffic_exp.run
      (Traffic_exp.config ~flows:shape.Work.flows ~capacity_scale:shape.Work.capacity_scale
         ~swarm_transfers:50 Exp_common.Tiny)
  in
  List.iter2
    (fun (name, r) strategy ->
      let label = "demand/" ^ Strategy.name strategy in
      let cell =
        List.find (fun (x : Traffic_exp.cell_result) -> x.Traffic_exp.label = label)
          real.Traffic_exp.cells
      in
      expect
        (Printf.sprintf "traffic-congested %s = Traffic_exp.run %s" name label)
        (cell.Traffic_exp.report <> None
        && compare (Option.get cell.Traffic_exp.report) r = 0))
    reports
    [ Strategy.Latency_greedy; Strategy.Load_adaptive ];
  expect "no failed checks inside the replays" (c.Work.failed = 0);
  if !failures > 0 then exit 1
