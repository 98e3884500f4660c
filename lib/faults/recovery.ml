type t = {
  mutable events_down : int;
  mutable events_up : int;
  affected : (int * int, unit) Hashtbl.t;
  mutable failovers : int;
  mutable blackouts : int;
  mutable unrecovered : int;
  mutable blackout_time_s : float;
  mutable recovery_rev : float list;
  mutable blackout_rev : float list;
  open_blackouts : (int * int, float) Hashtbl.t;
  mutable revoked_segments : int;
  mutable revocation_msgs : int;
  mutable revocation_bytes : float;
  mutable dropped_pcbs : int;
}

let create () =
  {
    events_down = 0;
    events_up = 0;
    affected = Hashtbl.create 64;
    failovers = 0;
    blackouts = 0;
    unrecovered = 0;
    blackout_time_s = 0.0;
    recovery_rev = [];
    blackout_rev = [];
    open_blackouts = Hashtbl.create 16;
    revoked_segments = 0;
    revocation_msgs = 0;
    revocation_bytes = 0.0;
    dropped_pcbs = 0;
  }

let record_event t ~action =
  match action with
  | Fault_plan.Down -> t.events_down <- t.events_down + 1
  | Fault_plan.Up -> t.events_up <- t.events_up + 1

let record_affected t ~pair = Hashtbl.replace t.affected pair ()

let record_failover t ~recovery_s =
  t.failovers <- t.failovers + 1;
  t.recovery_rev <- recovery_s :: t.recovery_rev

let record_revocation t ~segments ~msgs ~bytes =
  t.revoked_segments <- t.revoked_segments + segments;
  t.revocation_msgs <- t.revocation_msgs + msgs;
  t.revocation_bytes <- t.revocation_bytes +. float_of_int bytes

let record_dropped_pcbs t n = t.dropped_pcbs <- t.dropped_pcbs + n

let open_blackout t ~now ~pair =
  if not (Hashtbl.mem t.open_blackouts pair) then begin
    Hashtbl.replace t.open_blackouts pair now;
    t.blackouts <- t.blackouts + 1
  end

let close_blackout t ~now ~pair =
  match Hashtbl.find_opt t.open_blackouts pair with
  | None -> ()
  | Some since ->
      Hashtbl.remove t.open_blackouts pair;
      let d = now -. since in
      t.blackout_time_s <- t.blackout_time_s +. d;
      t.blackout_rev <- d :: t.blackout_rev;
      t.recovery_rev <- d :: t.recovery_rev

let finish t ~now =
  let dangling =
    Hashtbl.fold (fun pair since acc -> (pair, since) :: acc) t.open_blackouts []
    |> List.sort compare
  in
  List.iter
    (fun (pair, since) ->
      Hashtbl.remove t.open_blackouts pair;
      let d = now -. since in
      t.blackout_time_s <- t.blackout_time_s +. d;
      t.blackout_rev <- d :: t.blackout_rev;
      t.unrecovered <- t.unrecovered + 1)
    dangling

let w_pair w (a, b) =
  Snapshot.w_int w a;
  Snapshot.w_int w b

let r_pair r =
  let a = Snapshot.r_int r in
  (a, Snapshot.r_int r)

let write w t =
  Snapshot.w_int w t.events_down;
  Snapshot.w_int w t.events_up;
  Snapshot.w_list w w_pair
    (Hashtbl.fold (fun pair () acc -> pair :: acc) t.affected []
    |> List.sort compare);
  Snapshot.w_int w t.failovers;
  Snapshot.w_int w t.blackouts;
  Snapshot.w_int w t.unrecovered;
  Snapshot.w_f64 w t.blackout_time_s;
  Snapshot.w_list w Snapshot.w_f64 (List.rev t.recovery_rev);
  Snapshot.w_list w Snapshot.w_f64 (List.rev t.blackout_rev);
  Snapshot.w_list w
    (fun w (pair, since) ->
      w_pair w pair;
      Snapshot.w_f64 w since)
    (Hashtbl.fold (fun pair since acc -> (pair, since) :: acc) t.open_blackouts
       []
    |> List.sort (fun (a, _) (b, _) -> compare a b));
  Snapshot.w_int w t.revoked_segments;
  Snapshot.w_int w t.revocation_msgs;
  Snapshot.w_f64 w t.revocation_bytes;
  Snapshot.w_int w t.dropped_pcbs

let read r =
  let t = create () in
  t.events_down <- Snapshot.r_int r;
  t.events_up <- Snapshot.r_int r;
  Snapshot.r_sorted r "recovery pairs" (fun r ->
      let pair = r_pair r in
      Hashtbl.replace t.affected pair ();
      pair);
  t.failovers <- Snapshot.r_int r;
  t.blackouts <- Snapshot.r_int r;
  t.unrecovered <- Snapshot.r_int r;
  t.blackout_time_s <- Snapshot.r_f64 r;
  t.recovery_rev <- List.rev (Snapshot.r_list r Snapshot.r_f64);
  t.blackout_rev <- List.rev (Snapshot.r_list r Snapshot.r_f64);
  Snapshot.r_sorted r "open recovery windows" (fun r ->
      let pair = r_pair r in
      Hashtbl.replace t.open_blackouts pair (Snapshot.r_f64 r);
      pair);
  t.revoked_segments <- Snapshot.r_int r;
  t.revocation_msgs <- Snapshot.r_int r;
  t.revocation_bytes <- Snapshot.r_f64 r;
  t.dropped_pcbs <- Snapshot.r_int r;
  t

type summary = {
  events_down : int;
  events_up : int;
  affected_pairs : int;
  failovers : int;
  blackouts : int;
  unrecovered : int;
  blackout_time_s : float;
  recovery_samples : float array;
  revoked_segments : int;
  revocation_msgs : int;
  revocation_bytes : float;
  dropped_pcbs : int;
}

let summary (t : t) =
  {
    events_down = t.events_down;
    events_up = t.events_up;
    affected_pairs = Hashtbl.length t.affected;
    failovers = t.failovers;
    blackouts = t.blackouts;
    unrecovered = t.unrecovered;
    blackout_time_s = t.blackout_time_s;
    recovery_samples = Array.of_list (List.rev t.recovery_rev);
    revoked_segments = t.revoked_segments;
    revocation_msgs = t.revocation_msgs;
    revocation_bytes = t.revocation_bytes;
    dropped_pcbs = t.dropped_pcbs;
  }

let sum summaries =
  List.fold_left
    (fun a b ->
      {
        events_down = a.events_down + b.events_down;
        events_up = a.events_up + b.events_up;
        affected_pairs = a.affected_pairs + b.affected_pairs;
        failovers = a.failovers + b.failovers;
        blackouts = a.blackouts + b.blackouts;
        unrecovered = a.unrecovered + b.unrecovered;
        blackout_time_s = a.blackout_time_s +. b.blackout_time_s;
        recovery_samples = Array.append a.recovery_samples b.recovery_samples;
        revoked_segments = a.revoked_segments + b.revoked_segments;
        revocation_msgs = a.revocation_msgs + b.revocation_msgs;
        revocation_bytes = a.revocation_bytes +. b.revocation_bytes;
        dropped_pcbs = a.dropped_pcbs + b.dropped_pcbs;
      })
    (summary (create ()))
    summaries

let observe obs (t : t) =
  if Obs.on obs then begin
    let reg = Obs.registry obs in
    Registry.add reg "fault_events_total"
      ~labels:[ ("action", "down") ]
      (float_of_int t.events_down);
    Registry.add reg "fault_events_total"
      ~labels:[ ("action", "up") ]
      (float_of_int t.events_up);
    Registry.add reg "fault_affected_pairs_total"
      (float_of_int (Hashtbl.length t.affected));
    Registry.add reg "fault_failovers_total" (float_of_int t.failovers);
    Registry.add reg "fault_blackouts_total" (float_of_int t.blackouts);
    Registry.add reg "fault_revocation_bytes_total" t.revocation_bytes;
    let h_rec = Registry.histogram reg "fault_recovery_time_s" in
    List.iter (Histogram.observe h_rec) (List.rev t.recovery_rev);
    let h_black = Registry.histogram reg "fault_blackout_s" in
    List.iter (Histogram.observe h_black) (List.rev t.blackout_rev)
  end
