exception Job_failed of { index : int; backtrace : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Job_failed { index; exn; _ } ->
        Some
          (Printf.sprintf "Runner.Job_failed(job %d: %s)" index
             (Printexc.to_string exn))
    | _ -> None)

let default_jobs () = Domain.recommended_domain_count ()

(* The stdlib caps live domains at 128 (including the main one); clamp
   so a generous --jobs cannot abort the program. *)
let max_workers = 126

(* Output [i] of the SplitMix64 stream seeded with [base]: jobs get
   well-separated, statistically independent streams for any base. *)
let job_seed base i =
  let rng = Rng.create base in
  Rng.skip rng i;
  Rng.int64 rng

let fail index exn bt =
  raise
    (Job_failed
       { index; backtrace = Printexc.raw_backtrace_to_string bt; exn })

let map_jobs_obs ?(obs = Obs.disabled) ~jobs f arr =
  let n = Array.length arr in
  let children = Array.map (fun _ -> Obs.fork obs) arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  (* Every claimed job stores its outcome instead of raising, so the
     barrier below is unconditional. *)
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match f ~obs:children.(i) arr.(i) with
          | v -> Ok v
          | exception exn -> Error (exn, Printexc.get_raw_backtrace ()));
      claim ()
    end
  in
  (* Backtrace recording is per domain: workers follow the caller. *)
  let record = Printexc.backtrace_status () in
  let workers =
    List.init (max 0 (min max_workers (min (jobs - 1) (n - 1)))) (fun _ ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record;
            claim ()))
  in
  claim ();
  List.iter Domain.join workers;
  (* Merge in input order even if a job failed, so the metrics of the
     completed jobs survive the error. *)
  Array.iter (fun child -> Obs.merge ~into:obs child) children;
  Array.mapi
    (fun i r ->
      match Option.get r with Ok v -> v | Error (exn, bt) -> fail i exn bt)
    results
