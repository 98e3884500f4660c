(* Tests for scion_sim: the discrete-event engine. *)

let check = Alcotest.check

(* Fire every queued event, including ones scheduled while draining. *)
let drain sim = while Des.step sim do () done

let test_des_ordering () =
  let sim = Des.create () in
  let log = ref [] in
  Des.schedule sim ~delay:3.0 (fun _ -> log := 3 :: !log);
  Des.schedule sim ~delay:1.0 (fun _ -> log := 1 :: !log);
  Des.schedule sim ~delay:2.0 (fun _ -> log := 2 :: !log);
  drain sim;
  check (Alcotest.list Alcotest.int) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_des_fifo_same_time () =
  let sim = Des.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Des.schedule sim ~delay:1.0 (fun _ -> log := i :: !log)
  done;
  drain sim;
  check (Alcotest.list Alcotest.int) "fifo at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_des_clock_advances () =
  let sim = Des.create () in
  let seen = ref 0.0 in
  Des.schedule sim ~delay:5.5 (fun s -> seen := Des.now s);
  drain sim;
  Alcotest.(check (float 1e-9)) "clock at event time" 5.5 !seen

let test_des_nested_scheduling () =
  let sim = Des.create () in
  let fired = ref [] in
  Des.schedule sim ~delay:1.0 (fun s ->
      fired := Des.now s :: !fired;
      Des.schedule s ~delay:2.0 (fun s' -> fired := Des.now s' :: !fired));
  drain sim;
  check (Alcotest.list (Alcotest.float 1e-9)) "nested event at 3.0" [ 1.0; 3.0 ]
    (List.rev !fired)

let test_des_negative_delay () =
  let sim = Des.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Des.schedule: negative delay")
    (fun () -> Des.schedule sim ~delay:(-1.0) (fun _ -> ()))

let test_des_past_time () =
  let sim = Des.create () in
  Des.schedule sim ~delay:2.0 (fun _ -> ());
  drain sim;
  Alcotest.check_raises "past" (Invalid_argument "Des.schedule_at: time is in the past")
    (fun () -> Des.schedule_at sim ~time:1.0 (fun _ -> ()))

let test_des_step () =
  let sim = Des.create () in
  Des.schedule sim ~delay:1.0 (fun _ -> ());
  Alcotest.(check bool) "one step" true (Des.step sim);
  Alcotest.(check bool) "empty" false (Des.step sim)

(* An event scheduled with delay 0 from inside a handler runs at the
   same instant but after everything already queued for that time. *)
let test_des_same_instant_nested () =
  let sim = Des.create () in
  let log = ref [] in
  Des.schedule sim ~delay:1.0 (fun s ->
      log := "a" :: !log;
      Des.schedule s ~delay:0.0 (fun _ -> log := "nested" :: !log));
  Des.schedule sim ~delay:1.0 (fun _ -> log := "b" :: !log);
  drain sim;
  check
    (Alcotest.list Alcotest.string)
    "nested after queued peers" [ "a"; "b"; "nested" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "no time advance" 1.0 (Des.now sim)

let test_des_nan_guards () =
  let sim = Des.create () in
  Alcotest.check_raises "nan delay" (Invalid_argument "Des.schedule: nan delay")
    (fun () -> Des.schedule sim ~delay:nan (fun _ -> ()));
  Alcotest.check_raises "nan time" (Invalid_argument "Des.schedule_at: time is nan")
    (fun () -> Des.schedule_at sim ~time:nan (fun _ -> ()))

(* The engine's own instrumentation: event counter and queue-depth
   histogram appear when an enabled obs context is passed. *)
let test_des_obs_instrumentation () =
  let obs = Obs.create () in
  let sim = Des.create ~obs () in
  for i = 1 to 100 do
    Des.schedule sim ~delay:(float_of_int i) (fun _ -> ())
  done;
  drain sim;
  let c = Registry.counter (Obs.registry obs) "des_events_total" in
  Alcotest.(check (float 1e-9)) "all events counted" 100.0 !c;
  let h = Registry.histogram (Obs.registry obs) "des_queue_depth" in
  Alcotest.(check bool) "queue depth sampled" true (Histogram.count h > 0)

let suite =
  [
    ("des ordering", `Quick, test_des_ordering);
    ("des fifo same time", `Quick, test_des_fifo_same_time);
    ("des clock advances", `Quick, test_des_clock_advances);
    ("des nested scheduling", `Quick, test_des_nested_scheduling);
    ("des negative delay", `Quick, test_des_negative_delay);
    ("des past time", `Quick, test_des_past_time);
    ("des step", `Quick, test_des_step);
    ("des same-instant nested", `Quick, test_des_same_instant_nested);
    ("des nan guards", `Quick, test_des_nan_guards);
    ("des obs instrumentation", `Quick, test_des_obs_instrumentation);
  ]
