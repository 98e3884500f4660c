exception Killed of { checkpoints : int }
exception Inject_fail_out_of_range of { index : int; cells : int }
exception Bad_checkpoint of { file : string; reason : string }

let () =
  Printexc.register_printer (function
    | Killed { checkpoints } ->
        Some
          (Printf.sprintf
             "Supervise.Killed(after %d checkpoint%s, as requested by --kill-after)"
             checkpoints
             (if checkpoints = 1 then "" else "s"))
    | Inject_fail_out_of_range { index; cells } ->
        Some
          (Printf.sprintf
             "--inject-fail %d is not a cell index (this run has %d cells: \
              0..%d)"
             index cells (cells - 1))
    | Bad_checkpoint { file; reason } ->
        Some (Printf.sprintf "cannot resume from checkpoint %s: %s" file reason)
    | _ -> None)

type cli = {
  checkpoint_every : int;
  checkpoint_dir : string option;
  resume : bool;
  kill_after : int option;
  max_failures : int;
  retries : int;
  watchdog_s : float option;
  inject_fail : int option;
}

let default_cli =
  {
    checkpoint_every = 0;
    checkpoint_dir = None;
    resume = false;
    kill_after = None;
    max_failures = 0;
    retries = 1;
    watchdog_s = None;
    inject_fail = None;
  }

let attempt_seed ~base_seed ~index ~attempt =
  let s0 = Runner.job_seed base_seed index in
  if attempt = 0 then s0 else Runner.job_seed s0 attempt

let map ?(retries = 1) ?watchdog_s ?label_of ~jobs ~base_seed f arr =
  let label i = match label_of with Some f -> f i | None -> string_of_int i in
  (* The wrapper returns a [result] instead of raising, so a crashing
     or timed-out job can never abort the batch: surviving jobs always
     complete and the failures come back as data. *)
  let supervised ~obs:_ (i, x) =
    let rec attempt k =
      let seed = attempt_seed ~base_seed ~index:i ~attempt:k in
      let watchdog = Watchdog.start ~label:(label i) watchdog_s in
      match f ~obs:Obs.disabled ~seed ~watchdog x with
      | v -> Ok v
      | exception exn ->
          if k < retries then attempt (k + 1)
          else
            Error
              {
                Run_report.index = i;
                label = label i;
                seed = Some (Runner.job_seed base_seed i);
                attempts = k + 1;
                error = Printexc.to_string exn;
                backtrace = Printexc.get_backtrace ();
              }
    in
    attempt 0
  in
  let results =
    Runner.map_jobs_obs ~jobs supervised
      (Array.mapi (fun i x -> (i, x)) arr)
  in
  let failures =
    Array.to_list results
    |> List.filter_map (function Ok _ -> None | Error f -> Some f)
  in
  (results, Run_report.make ~jobs:(Array.length arr) failures)

(* --- chunked cell driver ---------------------------------------------- *)

type 's cells = {
  name : string;
  fingerprint : string;
  labels : string array;
  create : int -> 's;
  restore : int -> string -> 's;
  advance : watchdog:Watchdog.t -> 's -> upto:int -> unit;
  encode : 's -> string;
  check : 's -> unit;
}

let ckpt_version = 1

let w_status w = function
  | Ok bytes ->
      Snapshot.w_u8 w 0;
      Snapshot.w_str w bytes
  | Error (f : Run_report.failure) ->
      Snapshot.w_u8 w 1;
      Snapshot.w_int w f.Run_report.index;
      Snapshot.w_str w f.Run_report.label;
      Snapshot.w_opt w Snapshot.w_i64 f.Run_report.seed;
      Snapshot.w_int w f.Run_report.attempts;
      Snapshot.w_str w f.Run_report.error;
      Snapshot.w_str w f.Run_report.backtrace

let corrupt name fmt =
  Printf.ksprintf
    (fun s -> raise (Snapshot.Corrupt (name ^ " checkpoint: " ^ s)))
    fmt

let r_status name r =
  match Snapshot.r_u8 r with
  | 0 -> Ok (Snapshot.r_str r)
  | 1 ->
      let index = Snapshot.r_int r in
      let label = Snapshot.r_str r in
      let seed = Snapshot.r_opt r Snapshot.r_i64 in
      let attempts = Snapshot.r_int r in
      let error = Snapshot.r_str r in
      let backtrace = Snapshot.r_str r in
      Error { Run_report.index; label; seed; attempts; error; backtrace }
  | t -> corrupt name "bad status tag %d" t

let encode_progress ~step statuses =
  let w = Snapshot.writer () in
  Snapshot.w_int w step;
  Snapshot.w_arr w w_status statuses;
  Snapshot.contents w

(* The frame's SHA-256 only proves the payload is intact, not that it
   was written by this driver: bound every field a hand-made file could
   push out of range. *)
let decode_progress ~name ~n_cells ~horizon data =
  let r = Snapshot.reader data in
  let step = Snapshot.r_int r in
  let statuses = Snapshot.r_arr r (r_status name) in
  Snapshot.r_end r;
  if step < 0 || step > horizon then
    corrupt name "step %d outside [0, %d]" step horizon;
  if Array.length statuses <> n_cells then
    corrupt name "%d cells, expected %d" (Array.length statuses) n_cells;
  Array.iteri
    (fun i -> function
      | Error (f : Run_report.failure) when f.Run_report.index <> i ->
          corrupt name "failure at position %d records index %d" i
            f.Run_report.index
      | _ -> ())
    statuses;
  (step, statuses)

let run_cells ~cli ~jobs ~seed ~horizon ~chunk c =
  if chunk <= 0 then invalid_arg "Supervise.run_cells: chunk <= 0";
  let n_cells = Array.length c.labels in
  (match cli.inject_fail with
  | Some k when k < 0 || k >= n_cells ->
      raise (Inject_fail_out_of_range { index = k; cells = n_cells })
  | _ -> ());
  (* The schema binds a checkpoint to everything a resumed run must
     agree on, so one from a different configuration is rejected on
     load. *)
  let schema = c.name ^ ":" ^ Sha256.hex c.fingerprint in
  (* Start fresh at step 0 — or, with --resume, from the newest
     compatible checkpoint in the checkpoint directory. *)
  let start, statuses =
    let fresh () =
      (0, Array.init n_cells (fun i -> Ok (c.encode (c.create i))))
    in
    match cli.checkpoint_dir with
    | Some dir when cli.resume -> (
        match Checkpoint.latest ~dir ~prefix:c.name with
        | None -> fresh ()
        | Some (_, file) ->
            let step, statuses =
              try
                decode_progress ~name:c.name ~n_cells ~horizon
                  (Checkpoint.load ~dir ~name:file ~schema
                     ~version:ckpt_version)
              with Snapshot.Corrupt reason | Sys_error reason ->
                raise
                  (Bad_checkpoint { file = Filename.concat dir file; reason })
            in
            Printf.eprintf "%s: resumed from %s (step %d)\n%!" c.name file step;
            (step, statuses))
    | _ -> fresh ()
  in
  let written = ref 0 in
  let last_ckpt = ref start in
  let step = ref start in
  while !step < horizon do
    let upto = min horizon (!step + chunk) in
    let alive =
      Array.of_list
        (List.filter
           (fun i -> Result.is_ok statuses.(i))
           (List.init n_cells Fun.id))
    in
    let inputs = Array.map (fun i -> (i, Result.get_ok statuses.(i))) alive in
    (* Jobs advance a decoded copy of the cell snapshot and hand back
       fresh bytes, so a crashed or timed-out attempt can never leak
       partial progress: every retry replays from the same snapshot.
       Deliberately unobserved — per-chunk supervision counters would
       differ between an uninterrupted run and a resumed one. *)
    let results, _chunk_report =
      map ~retries:cli.retries ?watchdog_s:cli.watchdog_s
        ~label_of:(fun j -> c.labels.(alive.(j)))
        ~jobs
        ~base_seed:(Runner.job_seed seed (horizon + !step))
        (fun ~obs:_ ~seed:_ ~watchdog (i, bytes) ->
          (match cli.inject_fail with
          | Some k when k = i ->
              failwith (Printf.sprintf "injected failure (--inject-fail %d)" i)
          | _ -> ());
          let t = c.restore i bytes in
          c.advance ~watchdog t ~upto;
          c.encode t)
        inputs
    in
    Array.iteri
      (fun j r ->
        let i = alive.(j) in
        statuses.(i) <-
          Result.map_error (fun f -> { f with Run_report.index = i }) r)
      results;
    step := upto;
    match cli.checkpoint_dir with
    | Some dir
      when cli.checkpoint_every > 0
           && (upto - !last_ckpt >= cli.checkpoint_every || upto = horizon) ->
        (* Consistency gate before anything hits disk. *)
        Array.iteri
          (fun i -> function
            | Ok bytes -> c.check (c.restore i bytes) | Error _ -> ())
          statuses;
        ignore
          (Checkpoint.save ~dir
             ~name:(Checkpoint.numbered_name ~prefix:c.name ~n:upto)
             ~schema ~version:ckpt_version
             (encode_progress ~step:upto statuses));
        last_ckpt := upto;
        incr written;
        (match cli.kill_after with
        | Some k when !written >= k -> raise (Killed { checkpoints = !written })
        | _ -> ())
    | _ -> ()
  done;
  let failures =
    Array.to_list statuses
    |> List.filter_map (function Ok _ -> None | Error f -> Some f)
  in
  ( Array.mapi (fun i s -> Result.map (c.restore i) s) statuses,
    Run_report.make ~jobs:n_cells failures )
