(* Experiment driver.

   Every experiment implements Scenario.Cli and is one subcommand of
   [run], which takes exactly the flags its config builder reads plus
   the shared --jobs, --out, --metrics-out and --trace:

     scion_expt run SCENARIO [FLAGS]

   The remaining subcommands are not scenarios:

   scion_expt lookup [--requests N]
   scion_expt topo   [--scale S] [--save PREFIX] *)

open Cmdliner

let scale_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Exp_common.scale_of_string s) in
  let print fmt s = Format.pp_print_string fmt (Exp_common.scale_to_string s) in
  Arg.conv (parse, print)

(* A flag value checked on parse: anything [of_string] rejects or [ok]
   refuses is a usage error (exit 124), described as [expected]. *)
let bounded ~expected of_string ok pp =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, pp)

let non_negative =
  bounded ~expected:"a non-negative integer" int_of_string_opt
    (fun v -> v >= 0)
    Format.pp_print_int

let positive =
  bounded ~expected:"a positive integer" int_of_string_opt
    (fun v -> v > 0)
    Format.pp_print_int

let positive_float ~expected =
  bounded ~expected float_of_string_opt
    (fun v -> Float.is_finite v && v > 0.0)
    Format.pp_print_float

(* An output path, checked when the flag is parsed so that a run that
   could not write its output fails before doing any work. *)
let out_path =
  let parse s =
    let dir = Filename.dirname s in
    let is_dir p = Sys.file_exists p && Sys.is_directory p in
    match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
    | () when is_dir dir && not (is_dir s) -> Ok s
    | () | (exception Unix.Unix_error _) ->
        Printf.ksprintf
          (fun m -> Error (`Msg m))
          "cannot write '%s': not a file in a writable directory" s
  in
  Arg.conv (parse, Format.pp_print_string)

let scale_term =
  Arg.(
    value
    & opt scale_arg Exp_common.Tiny
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Experiment scale: tiny, small, medium or paper (\xc2\xa75.1 sizes).")

let seed_term =
  Arg.(
    value
    & opt (some int64) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Override the experiment's deterministic seed (the topology seed for \
           most scenarios).")

let jobs_term =
  Arg.(
    value
    & opt non_negative 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run the experiment's independent stages on $(docv) domains (0 = one \
           per core). Results are identical for every value; 1 is fully \
           sequential.")

let out_term =
  Arg.(
    value
    & opt (some out_path) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Also write the experiment result as JSON to $(docv).")

let resolve_jobs jobs = if jobs = 0 then Runner.default_jobs () else jobs

(* Supervision flags (checkpoint/resume, retries, failure injection) of
   the checkpointing scenarios, pathdyn and traffic. *)
let sup_term =
  let checkpoint_every =
    Arg.(
      value
      & opt non_negative 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Write a resumable checkpoint every $(docv) work steps (0 = off; \
             requires --checkpoint-dir): beaconing rounds for pathdyn, slots \
             for traffic.")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for checkpoint files (created if missing; requires \
             --checkpoint-every > 0 or --resume).")
  in
  let resume =
    Arg.(
      value
      & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the newest checkpoint in --checkpoint-dir \
             (required) instead of starting fresh. The completed run is \
             byte-identical to an uninterrupted one. A newest checkpoint \
             that is malformed or of another configuration exits 4.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some positive) None
      & info [ "kill-after" ] ~docv:"K"
          ~doc:
            "Abort (exit 3) right after the $(docv)-th checkpoint write ($(docv) \
             > 0; requires --checkpoint-dir and --checkpoint-every > 0) — a \
             deterministic stand-in for SIGKILL, used by the resume tests.")
  in
  let max_failures =
    Arg.(
      value
      & opt non_negative 0
      & info [ "max-failures" ] ~docv:"N"
          ~doc:
            "Tolerate up to $(docv) failed jobs before exiting nonzero; failed \
             jobs are always excluded from results and listed in the report.")
  in
  let retries =
    Arg.(
      value
      & opt non_negative 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a crashed or timed-out job up to $(docv) times with \
             deterministically re-derived seeds.")
  in
  let watchdog =
    Arg.(
      value
      & opt
          (some (positive_float ~expected:"a positive number of seconds"))
          None
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:
            "Per-attempt wall-clock budget; a job exceeding it is abandoned at \
             its next safe point and retried.")
  in
  let inject_fail =
    Arg.(
      value
      & opt (some non_negative) None
      & info [ "inject-fail" ] ~docv:"I"
          ~doc:
            "Force the job at index $(docv) to raise on every attempt \
             (graceful-degradation testing); an index past the last job is \
             an error.")
  in
  let make checkpoint_every checkpoint_dir resume kill_after max_failures
      retries watchdog_s inject_fail =
    (* Each of these combinations would be silently ignored. *)
    let needs_dir =
      if checkpoint_every > 0 then Some "--checkpoint-every"
      else if resume then Some "--resume"
      else if kill_after <> None then Some "--kill-after"
      else None
    in
    let writes = checkpoint_every > 0 in
    match (checkpoint_dir, needs_dir) with
    | None, Some flag ->
        `Error (true, Printf.sprintf "%s requires --checkpoint-dir" flag)
    | _ when kill_after <> None && not writes ->
        `Error (true, "--kill-after requires --checkpoint-every > 0")
    | Some _, _ when not (writes || resume) ->
        `Error
          (true, "--checkpoint-dir requires --checkpoint-every > 0 or --resume")
    | _ ->
        `Ok
          {
            Supervise.checkpoint_every;
            checkpoint_dir;
            resume;
            kill_after;
            max_failures;
            retries;
            watchdog_s;
            inject_fail;
          }
  in
  Term.(
    ret
      (const make $ checkpoint_every $ checkpoint_dir $ resume $ kill_after
     $ max_failures $ retries $ watchdog $ inject_fail))

(* The footer goes to stderr so stdout is byte-identical across runs
   (and across --jobs values); wall-clock time is not deterministic. *)
let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.eprintf "\n[%s finished in %.1f s]\n%!" name (Unix.gettimeofday () -. t0);
  r

let write_result out json =
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Obs_json.to_string_pretty json);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "result written to %s\n%!" file)
    out

(* Shared observability flags: every subcommand accepts --metrics-out
   and --trace, and runs under an Obs context that is Obs.disabled
   (zero-cost) unless at least one flag is given. The metrics file is
   deterministic; the trace and the phase table go to stderr. *)

let level_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Trace.level_of_string s) in
  let print fmt l = Format.pp_print_string fmt (Trace.level_to_string l) in
  Arg.conv (parse, print)

let obs_term =
  let metrics_out =
    Arg.(
      value
      & opt (some out_path) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the metrics (labeled counters and histograms) as JSON to \
             $(docv) when the command finishes. The file is byte-identical for \
             every --jobs value; wall-clock phase times go to stderr instead.")
  in
  let trace =
    Arg.(
      value
      & opt (some level_arg) None
      & info [ "trace" ] ~docv:"LEVEL"
          ~doc:
            "Enable structured tracing at $(docv) (error, warn, info or debug). \
             Events from every job stream to stderr, one line each; they are \
             not kept.")
  in
  Term.(
    const (fun metrics_out trace -> (metrics_out, trace)) $ metrics_out $ trace)

(* Wall-clock time per phase, after the run's footer. *)
let print_phases obs =
  match Timer.report (Obs.timers obs) with
  | [] -> ()
  | phases ->
      Printf.eprintf "%-40s %10s %7s\n" "phase" "seconds" "count";
      List.iter
        (fun (name, seconds, count) ->
          Printf.eprintf "%-40s %10.3f %7d\n" name seconds count)
        phases;
      flush stderr

let with_obs (metrics_out, trace) f =
  match (metrics_out, trace) with
  | None, None -> f Obs.disabled
  | _ ->
      let tr =
        match trace with
        | None -> Trace.null
        | Some level -> Trace.create ~sink:Trace.Stderr level
      in
      let obs = Obs.create ~trace:tr () in
      Fun.protect
        ~finally:(fun () ->
          print_phases obs;
          Option.iter
            (fun file ->
              Obs.write_json_file obs file;
              Printf.eprintf "metrics written to %s\n%!" file)
            metrics_out)
        (fun () -> f obs)

(* One [run] subcommand: the scenario's config term plus the flags every
   scenario shares. The run builds, runs, prints and optionally exports;
   it exits with [exit_code result] when nonzero (the supervised
   scenarios' failure budget), with code 3 on a deliberate --kill-after
   abort (after the with_obs finalizers have run), with the usage error
   code on an --inject-fail index that names no cell (known only once
   the scenario has built its cells, before any of them runs), and with
   code 4 when --resume finds a checkpoint it cannot use (a data error:
   the directory is user input). *)
let scenario (type c r) ?(exit_code = fun _ -> 0)
    (module S : Scenario.Cli with type config = c and type result = r)
    (config : c Term.t) =
  let run config jobs out obs_opts =
    match
      with_obs obs_opts (fun obs ->
          timed S.name (fun () ->
              let result = S.run ~obs ~jobs:(resolve_jobs jobs) config in
              S.print result;
              write_result out (S.to_json result);
              exit_code result))
    with
    | 0 -> ()
    | code -> exit code
    | exception Supervise.Killed { checkpoints } ->
        Printf.eprintf "aborted after %d checkpoint(s) (--kill-after)\n%!"
          checkpoints;
        exit 3
    | exception (Supervise.Inject_fail_out_of_range _ as e) ->
        Printf.eprintf "%s: %s\n%!" S.name (Printexc.to_string e);
        exit Cmd.Exit.cli_error
    | exception (Supervise.Bad_checkpoint _ as e) ->
        Printf.eprintf "%s: %s\n%!" S.name (Printexc.to_string e);
        exit 4
  in
  Cmd.v (Cmd.info S.name ~doc:S.doc)
    Term.(const run $ config $ jobs_term $ out_term $ obs_term)

let strategy_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Strategy.of_string s) in
  let print fmt s = Format.pp_print_string fmt (Strategy.name s) in
  Arg.conv (parse, print)

(* The traffic scenario's own knobs. *)
let traffic_term =
  let flows =
    Arg.(
      value
      & opt (some positive) None
      & info [ "flows" ] ~docv:"N"
          ~doc:"Demand flows per strategy cell ($(docv) > 0).")
  in
  let strategy =
    Arg.(
      value
      & opt (some strategy_arg) None
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            "Restrict the demand sweep to one path-selection strategy \
             (latency-greedy, diversity-max or load-adaptive).")
  in
  let capacity_scale =
    Arg.(
      value
      & opt
          (some (positive_float ~expected:"a positive finite number"))
          None
      & info [ "capacity-scale" ] ~docv:"X"
          ~doc:"Uniform link-capacity multiplier (positive, finite).")
  in
  Term.(
    const (fun flows strategy capacity_scale seed sup scale ->
        Traffic_exp.config ?seed ?flows ?strategy ?capacity_scale ~sup scale)
    $ flows $ strategy $ capacity_scale $ seed_term $ sup_term $ scale_term)

(* The config of a scenario that reads only --seed and --scale. *)
let seeded config = Term.(const config $ seed_term $ scale_term)

let run_cmd =
  Cmd.group
    (Cmd.info "run" ~doc:"Run one experiment scenario")
    [
      scenario (module Table1) Term.(const Table1.config $ scale_term);
      scenario (module Fig5)
        (seeded (fun seed scale -> Fig5.config ?seed scale));
      scenario (module Fig6)
        (seeded (fun seed scale -> Fig6.config ?seed scale));
      scenario (module Scionlab_exp) (Term.const (Scionlab_exp.config ()));
      scenario (module Convergence)
        (seeded (fun seed scale -> Convergence.config ?seed scale));
      scenario (module Resilience)
        (seeded (fun seed scale -> Resilience.config ?seed scale));
      scenario ~exit_code:Pathdyn.exit_code (module Pathdyn)
        Term.(
          const (fun seed sup scale -> Pathdyn.config ?seed ~sup scale)
          $ seed_term $ sup_term $ scale_term);
      scenario (module Latency_exp)
        (seeded (fun seed scale -> Latency_exp.config ?seed scale));
      scenario (module Tuning) (Term.const (Tuning.config ()));
      scenario ~exit_code:Traffic_exp.exit_code (module Traffic_exp)
        traffic_term;
    ]

let lookup_cmd =
  let requests =
    Arg.(
      value
      & opt positive 50000
      & info [ "requests" ] ~docv:"N" ~doc:"Lookup requests ($(docv) > 0).")
  in
  let run requests obs_opts =
    with_obs obs_opts (fun obs ->
        timed "lookup" (fun () ->
            Lookup_sim.print_sweep (Lookup_sim.sweep ~obs ~requests ())))
  in
  Cmd.v
    (Cmd.info "lookup" ~doc:"Path-lookup caching simulation (section 4.1)")
    Term.(const run $ requests $ obs_term)

let topo_cmd =
  let save =
    Arg.(
      value
      & opt (some out_path) None
      & info [ "save" ] ~docv:"PREFIX"
          ~doc:"Also write the topologies to PREFIX.{full,core,isd}.topo.")
  in
  let run scale save =
    timed "topo" (fun () ->
        let p = Exp_common.prepare scale in
        let describe name g =
          let degs = Array.init (Graph.n g) (fun v -> float_of_int (Graph.as_degree g v)) in
          let links = Array.init (Graph.n g) (fun v -> float_of_int (Graph.link_degree g v)) in
          Printf.printf "%-6s: %5d ASes %6d links (parallel incl.)  AS-degree %s\n"
            name (Graph.n g) (Graph.num_links g) (Stats.summary degs);
          Printf.printf "        link-degree %s  core ASes: %d\n" (Stats.summary links)
            (List.length (Graph.core_ases g));
          match save with
          | None -> ()
          | Some prefix ->
              let file = Printf.sprintf "%s.%s.topo" prefix name in
              let oc = open_out file in
              output_string oc (Graph.to_text g);
              close_out oc;
              Printf.printf "        written to %s\n" file
        in
        describe "full" p.Exp_common.full;
        describe "core" p.Exp_common.core;
        describe "isd" p.Exp_common.isd)
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:"Describe (and optionally export) the generated experiment topologies")
    Term.(const run $ scale_term $ save)

let () =
  let info =
    Cmd.info "scion_expt" ~version:"1.0"
      ~doc:
        "Reproduce the tables and figures of 'Deployment and Scalability of an \
         Inter-Domain Multi-Path Routing Infrastructure' (CoNEXT '21)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; lookup_cmd; topo_cmd ]))
