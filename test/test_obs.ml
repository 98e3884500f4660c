(* Tests for scion_obs: histograms, the labeled registry, tracing,
   timers and the hand-rolled JSON writer. *)

let check = Alcotest.check

(* --- Histogram ----------------------------------------------------- *)

let test_hist_empty () =
  let h = Histogram.create () in
  check Alcotest.int "count" 0 (Histogram.count h);
  Alcotest.(check bool) "quantile nan" true
    (Float.is_nan (Histogram.summarize h).Histogram.p50);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Histogram.mean h))

let test_hist_single_value () =
  let h = Histogram.create () in
  Histogram.observe h 42.0;
  let s = Histogram.summarize h in
  Alcotest.(check (float 1e-9)) "p50 is the value" 42.0 s.Histogram.p50;
  Alcotest.(check (float 1e-9)) "p99 is the value" 42.0 s.Histogram.p99;
  Alcotest.(check (float 1e-9)) "min" 42.0 s.Histogram.min;
  Alcotest.(check (float 1e-9)) "max" 42.0 s.Histogram.max

(* Log-bucketed quantiles are approximate: with the default growth of
   2^0.25 a bucket spans ~19%, so the estimate must be within that
   relative error of the exact order statistic. *)
let test_hist_quantile_accuracy () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.observe h (float_of_int i)
  done;
  let s = Histogram.summarize h in
  let check_q q got exact =
    let rel = Float.abs (got -. exact) /. exact in
    if rel > 0.2 then
      Alcotest.failf "q=%.2f: estimate %.1f vs exact %.1f (rel %.3f)" q got exact rel
  in
  check_q 0.5 s.Histogram.p50 5000.0;
  check_q 0.9 s.Histogram.p90 9000.0;
  check_q 0.99 s.Histogram.p99 9900.0;
  Alcotest.(check (float 1e-6)) "sum" 5.0005e7 (Histogram.sum h);
  check Alcotest.int "count" 10_000 (Histogram.count h)

let test_hist_fraction_le () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.observe h (float_of_int i)
  done;
  let f = Histogram.fraction_le h 500.0 in
  if Float.abs (f -. 0.5) > 0.1 then Alcotest.failf "fraction_le 500 = %.3f" f;
  Alcotest.(check (float 1e-9)) "everything below max bound" 1.0
    (Histogram.fraction_le h 1e12);
  Alcotest.(check (float 1e-9)) "nothing below tiny" 0.0
    (Histogram.fraction_le h 1e-9)

let test_hist_nonpos () =
  let h = Histogram.create () in
  Histogram.observe h 0.0;
  Histogram.observe h (-5.0);
  Histogram.observe h 10.0;
  check Alcotest.int "count includes nonpos" 3 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "min tracks negatives" (-5.0)
    (Histogram.summarize h).Histogram.min;
  (* Both non-positive observations sit below any positive threshold. *)
  Alcotest.(check (float 1e-9)) "fraction_le 1.0" (2.0 /. 3.0)
    (Histogram.fraction_le h 1.0)

let test_hist_nan_rejected () =
  let h = Histogram.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Histogram.observe: nan") (fun () ->
      Histogram.observe h nan)

let test_hist_merge_reset () =
  let a = Histogram.create () in
  let b = Histogram.create () in
  for i = 1 to 50 do
    Histogram.observe a (float_of_int i);
    Histogram.observe b (float_of_int (i + 50))
  done;
  Histogram.merge ~into:a b;
  check Alcotest.int "merged count" 100 (Histogram.count a);
  let s = Histogram.summarize a in
  Alcotest.(check (float 1e-9)) "merged max" 100.0 s.Histogram.max;
  Alcotest.(check (float 1e-9)) "merged min" 1.0 s.Histogram.min

(* --- Registry ------------------------------------------------------ *)

let test_registry_counters_and_labels () =
  let r = Registry.create () in
  let c1 = Registry.counter r ~labels:[ ("algo", "baseline") ] "pcbs_total" in
  let c2 = Registry.counter r ~labels:[ ("algo", "diversity") ] "pcbs_total" in
  c1 := 5.0;
  c2 := 7.0;
  (* Labels are order-insensitive: the same cell comes back. *)
  let c1' = Registry.counter r ~labels:[ ("algo", "baseline") ] "pcbs_total" in
  Alcotest.(check (float 1e-9)) "same cell" 5.0 !c1';
  Registry.add r ~labels:[ ("algo", "baseline") ] "pcbs_total" 1.0;
  Alcotest.(check (float 1e-9)) "one-shot add hits the cell" 6.0 !c1;
  check Alcotest.int "two series" 2 (List.length (Registry.snapshot r))

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  Alcotest.(check bool) "histogram over counter raises" true
    (try
       ignore (Registry.histogram r "x");
       false
     with Invalid_argument _ -> true)

let test_registry_snapshot () =
  let r = Registry.create () in
  let c = Registry.counter r "events" in
  Histogram.observe
    (Registry.histogram r ~labels:[ ("b", "2"); ("a", "1") ] "depth")
    3.0;
  c := 10.0;
  let before = Registry.snapshot r in
  c := 25.0;
  let after = Registry.snapshot r in
  check
    (Alcotest.list Alcotest.string)
    "sorted by name" [ "depth"; "events" ]
    (List.map (fun s -> s.Registry.name) after);
  (match after with
  | [ d; _ ] ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "labels normalised" [ ("a", "1"); ("b", "2") ] d.Registry.labels
  | _ -> Alcotest.fail "expected two series");
  let events snap =
    match List.find (fun s -> s.Registry.name = "events") snap with
    | { Registry.value = Registry.Counter v; _ } -> v
    | _ -> Alcotest.fail "events not a counter"
  in
  Alcotest.(check (float 0.0)) "snapshot is a copy" 10.0 (events before);
  Alcotest.(check (float 0.0)) "later snapshot sees the update" 25.0
    (events after)

(* --- Trace --------------------------------------------------------- *)

(* A tracer whose sink collects the accepted events, newest first. *)
let collecting level =
  let seen = ref [] in
  (Trace.create ~sink:(Trace.Custom (fun e -> seen := e :: !seen)) level, seen)

let test_trace_levels () =
  let tr, seen = collecting Trace.Info in
  Alcotest.(check bool) "info enabled" true (Trace.enabled tr Trace.Info);
  Alcotest.(check bool) "warn enabled" true (Trace.enabled tr Trace.Warn);
  Alcotest.(check bool) "debug disabled" false (Trace.enabled tr Trace.Debug);
  Trace.emit tr Trace.Debug ~time:0.0 ~category:"x" "dropped";
  Trace.emit tr Trace.Info ~time:1.0 ~category:"x" "kept";
  check
    (Alcotest.list Alcotest.string)
    "only the enabled event" [ "kept" ]
    (List.map (fun e -> e.Trace.message) !seen)

let test_trace_null_off () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        ("null rejects " ^ Trace.level_to_string l)
        false (Trace.enabled Trace.null l))
    [ Trace.Error; Trace.Warn; Trace.Info; Trace.Debug ];
  (* Emitting into the null tracer is a no-op, not an error. *)
  Trace.emit Trace.null Trace.Error ~time:0.0 ~category:"x" "ignored"

let test_trace_custom_sink () =
  let tr, seen = collecting Trace.Warn in
  Trace.emit tr Trace.Error ~time:2.5 ~category:"c"
    ~fields:[ ("k", "v") ]
    "boom";
  Trace.emit tr Trace.Debug ~time:0.0 ~category:"c" "quiet";
  match !seen with
  | [ e ] ->
      Alcotest.(check bool) "sink sees the accepted event" true
        (e
        = {
            Trace.time = 2.5;
            level = Trace.Error;
            category = "c";
            message = "boom";
            fields = [ ("k", "v") ];
          })
  | l -> Alcotest.failf "expected one event, got %d" (List.length l)

let test_trace_level_of_string () =
  let lvl = Alcotest.testable (Fmt.of_to_string Trace.level_to_string) ( = ) in
  (match Trace.level_of_string "info" with
  | Ok l -> check lvl "info" Trace.Info l
  | Error e -> Alcotest.fail e);
  match Trace.level_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error _ -> ()

(* --- Obs context and JSON ------------------------------------------ *)

let test_obs_disabled_is_off () =
  Alcotest.(check bool) "off" false (Obs.on Obs.disabled);
  (* phase must still run the thunk. *)
  check Alcotest.int "phase transparent" 7 (Obs.phase Obs.disabled "p" (fun () -> 7))

let test_obs_phase_timing () =
  let obs = Obs.create () in
  check Alcotest.int "result" 3 (Obs.phase obs "work" (fun () -> 3));
  ignore (Obs.phase obs "work" (fun () -> 0));
  match Timer.report (Obs.timers obs) with
  | [ (name, total, count) ] ->
      check Alcotest.string "name" "work" name;
      check Alcotest.int "two timings" 2 count;
      Alcotest.(check bool) "nonneg total" true (total >= 0.0)
  | l -> Alcotest.failf "expected one timer, got %d" (List.length l)

let test_json_escaping () =
  let s = Obs_json.to_string (Obs_json.String "a\"b\\c\nd\te") in
  check Alcotest.string "escaped" "\"a\\\"b\\\\c\\nd\\te\"" s

let test_json_special_floats () =
  check Alcotest.string "nan is null" "null" (Obs_json.to_string (Obs_json.Float nan));
  check Alcotest.string "inf is null" "null"
    (Obs_json.to_string (Obs_json.Float infinity));
  check Alcotest.string "integral floats stay exact" "42"
    (Obs_json.to_string (Obs_json.Float 42.0))

(* Minimal structural validator: balanced brackets outside strings and
   legal escapes — enough to catch malformed output without a JSON
   dependency. *)
let assert_balanced json =
  let depth = ref 0 and in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
      if !esc then esc := false
      else if !in_str then begin
        if c = '\\' then esc := true else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then Alcotest.fail "unbalanced brackets"
        | _ -> ())
    json;
  Alcotest.(check bool) "string closed" false !in_str;
  check Alcotest.int "balanced" 0 !depth

(* The --metrics-out document: what [Obs.write_json_file] writes. *)
let metrics_document obs =
  let file = Filename.temp_file "scion_metrics" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Obs.write_json_file obs file;
  In_channel.with_open_bin file In_channel.input_all

let test_obs_to_json_shape () =
  let obs = Obs.create ~trace:(fst (collecting Trace.Debug)) () in
  let c = Registry.counter (Obs.registry obs) ~labels:[ ("k", "v") ] "hits" in
  c := 3.0;
  Histogram.observe (Registry.histogram (Obs.registry obs) "sizes") 128.0;
  Trace.emit (Obs.trace obs) Trace.Info ~time:1.5 ~category:"t"
    ~fields:[ ("a", "b") ] "hello \"quoted\"";
  ignore (Obs.phase obs "stage" (fun () -> ()));
  let json = metrics_document obs in
  assert_balanced json;
  let has needle expect =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    Alcotest.(check bool)
      (Printf.sprintf "%s %s" (if expect then "contains" else "omits") needle)
      expect (go 0)
  in
  has "\"metrics\"" true;
  has "\"hits\"" true;
  has "\"p99\"" true;
  (* Wall-clock timers and the trace stream never enter the document. *)
  has "\"timers\"" false;
  has "\"stage\"" false;
  has "\"trace\"" false;
  has "quoted" false

let suite =
  [
    ("histogram empty", `Quick, test_hist_empty);
    ("histogram single value", `Quick, test_hist_single_value);
    ("histogram quantile accuracy", `Quick, test_hist_quantile_accuracy);
    ("histogram fraction_le", `Quick, test_hist_fraction_le);
    ("histogram nonpositive values", `Quick, test_hist_nonpos);
    ("histogram nan rejected", `Quick, test_hist_nan_rejected);
    ("histogram merge and reset", `Quick, test_hist_merge_reset);
    ("registry counters and labels", `Quick, test_registry_counters_and_labels);
    ("registry kind mismatch", `Quick, test_registry_kind_mismatch);
    ("registry snapshot", `Quick, test_registry_snapshot);
    ("trace levels", `Quick, test_trace_levels);
    ("trace null is off", `Quick, test_trace_null_off);
    ("trace custom sink", `Quick, test_trace_custom_sink);
    ("trace level parsing", `Quick, test_trace_level_of_string);
    ("obs disabled", `Quick, test_obs_disabled_is_off);
    ("obs phase timing", `Quick, test_obs_phase_timing);
    ("json escaping", `Quick, test_json_escaping);
    ("json special floats", `Quick, test_json_special_floats);
    ("obs to_json shape", `Quick, test_obs_to_json_shape);
  ]
