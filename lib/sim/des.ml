type event = { time : float; seq : int; action : t -> unit }

and t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Heap.t;
  (* Observability: cells hoisted at creation so the hot path pays one
     predictable branch when disabled. *)
  obs_on : bool;
  trace : Trace.t;
  obs_events : float ref;
  obs_depth : Histogram.t;
}

let compare_event e1 e2 =
  match compare e1.time e2.time with 0 -> compare e1.seq e2.seq | c -> c

(* Queue depth is sampled every [depth_sample_mask + 1] fired events. *)
let depth_sample_mask = 63

let create ?(obs = Obs.disabled) () =
  let obs_on = Obs.on obs in
  {
    clock = 0.0;
    next_seq = 0;
    queue = Heap.create ~cmp:compare_event;
    obs_on;
    trace = Obs.trace obs;
    obs_events =
      (if obs_on then Registry.counter (Obs.registry obs) "des_events_total"
       else ref 0.0);
    obs_depth =
      (if obs_on then Registry.histogram (Obs.registry obs) "des_queue_depth"
       else Histogram.create ());
  }

let now t = t.clock

let schedule_at t ~time action =
  if Float.is_nan time then invalid_arg "Des.schedule_at: time is nan";
  if time < t.clock then invalid_arg "Des.schedule_at: time is in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.queue { time; seq; action }

let schedule t ~delay action =
  if Float.is_nan delay then invalid_arg "Des.schedule: nan delay";
  if delay < 0.0 then invalid_arg "Des.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
      t.clock <- ev.time;
      if t.obs_on then begin
        t.obs_events := !(t.obs_events) +. 1.0;
        let n = int_of_float !(t.obs_events) in
        if n land depth_sample_mask = 0 then
          Histogram.observe t.obs_depth (float_of_int (Heap.length t.queue));
        if Trace.enabled t.trace Trace.Debug then
          Trace.emit t.trace Trace.Debug ~time:ev.time ~category:"des"
            ~fields:[ ("queue", string_of_int (Heap.length t.queue)) ]
            "event fired"
      end;
      ev.action t;
      true

let pending t = Heap.length t.queue
