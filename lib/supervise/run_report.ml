type failure = {
  index : int;
  label : string;
  seed : int64 option;
  attempts : int;
  error : string;
  backtrace : string;
}

type t = { jobs : int; failures : failure list }

let make ~jobs failures =
  {
    jobs;
    failures = List.sort (fun a b -> compare a.index b.index) failures;
  }

let n_failed t = List.length t.failures

let ok t = t.failures = []

let failure_to_json f =
  let base =
    [
      ("index", Obs_json.Int f.index);
      ("label", Obs_json.String f.label);
      ("attempts", Obs_json.Int f.attempts);
      ("error", Obs_json.String f.error);
    ]
  in
  let seed =
    match f.seed with
    | None -> []
    | Some s -> [ ("seed", Obs_json.String (Int64.to_string s)) ]
  in
  Obs_json.Obj (base @ seed)

let to_json t =
  Obs_json.Obj
    [
      ("jobs", Obs_json.Int t.jobs);
      ("failed", Obs_json.Int (n_failed t));
      ("failures", Obs_json.List (List.map failure_to_json t.failures));
    ]

let observe obs t =
  if Obs.on obs then begin
    let reg = Obs.registry obs in
    Registry.add reg "supervise_jobs_total" (float_of_int t.jobs);
    Registry.add reg "supervise_jobs_failed_total" (float_of_int (n_failed t));
    let retries =
      List.fold_left (fun acc f -> acc + (f.attempts - 1)) 0 t.failures
    in
    Registry.add reg "supervise_retries_total" (float_of_int retries)
  end

let pp ppf t =
  if ok t then Format.fprintf ppf "all %d jobs succeeded" t.jobs
  else begin
    Format.fprintf ppf "%d of %d jobs failed:" (n_failed t) t.jobs;
    List.iter
      (fun f ->
        Format.fprintf ppf "@\n  job %d (%s)%s: %s after %d attempt%s" f.index
          f.label
          (match f.seed with
          | None -> ""
          | Some s -> Printf.sprintf " seed %Ld" s)
          f.error f.attempts
          (if f.attempts = 1 then "" else "s"))
      t.failures
  end
