(* Tests for scion_supervise and what it checkpoints: the snapshot
   primitives and every component's write/read, checkpoint
   framing/corruption/series, the cooperative watchdog, supervised map
   retry/degradation/determinism, the chunked cell driver (kill/resume,
   checkpoint format, malformed progress), the invariant checker, and
   byte-identical soak chunking. *)

let check = Alcotest.check

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Same 4-core ring (plus a chord) as the fault tests: small enough for
   sub-second beaconing runs, rich enough for multipath churn. *)
let ring () =
  let b = Graph.builder () in
  let c = Array.init 4 (fun i -> Graph.add_as b ~core:true (Id.ia 1 (i + 1))) in
  Graph.add_link b ~rel:Graph.Core c.(0) c.(1);
  Graph.add_link b ~rel:Graph.Core c.(1) c.(2);
  Graph.add_link b ~rel:Graph.Core c.(2) c.(3);
  Graph.add_link b ~rel:Graph.Core c.(3) c.(0);
  Graph.add_link b ~rel:Graph.Core c.(0) c.(2);
  Graph.freeze b

let soak_config ?(seed = 1L) ?(rounds = 12) ?(limit = 5) () =
  let g = ring () in
  let interval = 600.0 in
  let duration = float_of_int rounds *. interval in
  {
    Soak.graph = g;
    beacon =
      {
        Beaconing.default_config with
        Beaconing.algorithm = Beacon_policy.Baseline;
        interval;
        duration;
        storage_limit = limit;
      };
    plan =
      Fault_plan.plan ~seed
        [
          Fault_plan.Flapping
            {
              link = 0;
              at = interval;
              period = 3.0 *. interval;
              down_fraction = 0.5;
              until = duration;
            };
          Fault_plan.Stochastic
            { mtbf = 7200.0; mttr = 600.0; start = interval; until = duration };
        ];
    pairs = [| (0, 2); (1, 3) |];
    register_top = 2;
    metric_labels = [ ("cell", "test") ];
  }

(* A directory name that is fresh, writable and absent — Checkpoint.save
   creates it on first use. *)
let fresh_dir () =
  let f = Filename.temp_file "scion_ckpt" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Run a checkpointing scenario killed at its first checkpoint (every
   [every] steps, in a fresh directory), then resume it to completion;
   returns the resumed result. *)
let kill_and_resume ~every run =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sup =
    {
      Supervise.default_cli with
      Supervise.checkpoint_every = every;
      checkpoint_dir = Some dir;
    }
  in
  (match run { sup with Supervise.kill_after = Some 1 } with
  | _ -> Alcotest.fail "expected Supervise.Killed"
  | exception Supervise.Killed _ -> ());
  run { sup with Supervise.resume = true }

(* --- Snapshot: primitives ------------------------------------------- *)

let test_snapshot_primitives () =
  let w = Snapshot.writer () in
  List.iter (Snapshot.w_int w) [ 0; 1; -1; max_int; min_int ];
  Snapshot.w_i64 w 0x0123456789ABCDEFL;
  List.iter (Snapshot.w_f64 w) [ 1.5; -0.0; infinity; neg_infinity; nan ];
  Snapshot.w_bool w true;
  Snapshot.w_bool w false;
  Snapshot.w_str w "";
  Snapshot.w_str w "h\x00i\xff";
  Snapshot.w_list w Snapshot.w_int [ 3; 1; 4 ];
  Snapshot.w_arr w Snapshot.w_f64 [| 0.5; -2.25 |];
  Snapshot.w_opt w Snapshot.w_str None;
  Snapshot.w_opt w Snapshot.w_str (Some "x");
  let r = Snapshot.reader (Snapshot.contents w) in
  List.iter
    (fun v -> check Alcotest.int "int roundtrip" v (Snapshot.r_int r))
    [ 0; 1; -1; max_int; min_int ];
  check Alcotest.int64 "i64 roundtrip" 0x0123456789ABCDEFL (Snapshot.r_i64 r);
  List.iter
    (fun v ->
      check Alcotest.int64 "f64 roundtrip is bit-exact" (Int64.bits_of_float v)
        (Int64.bits_of_float (Snapshot.r_f64 r)))
    [ 1.5; -0.0; infinity; neg_infinity; nan ];
  Alcotest.(check bool) "bool true" true (Snapshot.r_bool r);
  Alcotest.(check bool) "bool false" false (Snapshot.r_bool r);
  check Alcotest.string "empty string" "" (Snapshot.r_str r);
  check Alcotest.string "binary string" "h\x00i\xff" (Snapshot.r_str r);
  check (Alcotest.list Alcotest.int) "list" [ 3; 1; 4 ]
    (Snapshot.r_list r Snapshot.r_int);
  check (Alcotest.array (Alcotest.float 0.0)) "array" [| 0.5; -2.25 |]
    (Snapshot.r_arr r Snapshot.r_f64);
  Alcotest.(check bool) "none" true (Snapshot.r_opt r Snapshot.r_str = None);
  Alcotest.(check bool) "some" true (Snapshot.r_opt r Snapshot.r_str = Some "x");
  Snapshot.r_end r;
  (* Fixed-width fields: both ends of the range round-trip big-endian in
     exactly [bits / 8] bytes; one past either end is rejected. *)
  List.iter
    (fun (bits, w_u, r_u) ->
      let top = (1 lsl bits) - 1 in
      let w = Snapshot.writer () in
      w_u w 0;
      w_u w top;
      let b = Snapshot.contents w in
      check Alcotest.string
        (Printf.sprintf "u%d bytes" bits)
        (String.make (bits / 8) '\x00' ^ String.make (bits / 8) '\xff')
        b;
      let r = Snapshot.reader b in
      check Alcotest.int (Printf.sprintf "u%d zero" bits) 0 (r_u r);
      check Alcotest.int (Printf.sprintf "u%d max" bits) top (r_u r);
      Snapshot.r_end r;
      List.iter
        (fun v ->
          match w_u (Snapshot.writer ()) v with
          | () -> Alcotest.failf "w_u%d %d accepted" bits v
          | exception Invalid_argument _ -> ())
        [ top + 1; -1 ])
    Snapshot.
      [
        (8, w_u8, r_u8);
        (16, w_u16, r_u16);
        (24, w_u24, r_u24);
        (32, w_u32, r_u32);
      ];
  let w = Snapshot.writer () in
  Snapshot.w_raw w "ab\x00c";
  let r = Snapshot.reader (Snapshot.contents w) in
  check Alcotest.string "raw roundtrip" "ab\x00c" (Snapshot.r_raw r 4);
  Snapshot.r_end r

let test_snapshot_i64_wire_format () =
  (* Exactly 8 big-endian bytes per word — a regression check for the
     codec's framing (a wrong stride corrupts every composite codec). *)
  let w = Snapshot.writer () in
  Snapshot.w_i64 w 0x0102030405060708L;
  check Alcotest.string "big-endian bytes" "\x01\x02\x03\x04\x05\x06\x07\x08"
    (Snapshot.contents w);
  let w = Snapshot.writer () in
  Snapshot.w_int w 7;
  check Alcotest.int "int is 8 bytes" 8 (String.length (Snapshot.contents w))

let test_snapshot_corruption () =
  let expect_corrupt what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected Snapshot.Corrupt")
    | exception Snapshot.Corrupt _ -> ()
  in
  expect_corrupt "truncated int" (fun () ->
      Snapshot.r_int (Snapshot.reader "\x00\x01"));
  expect_corrupt "implausible string length" (fun () ->
      let w = Snapshot.writer () in
      Snapshot.w_int w 1_000_000;
      Snapshot.r_str (Snapshot.reader (Snapshot.contents w)));
  expect_corrupt "negative list length" (fun () ->
      let w = Snapshot.writer () in
      Snapshot.w_int w (-1);
      Snapshot.r_list (Snapshot.reader (Snapshot.contents w)) Snapshot.r_int);
  expect_corrupt "bad bool tag" (fun () ->
      let w = Snapshot.writer () in
      Snapshot.w_u8 w 7;
      Snapshot.r_bool (Snapshot.reader (Snapshot.contents w)));
  expect_corrupt "bad option tag" (fun () ->
      let w = Snapshot.writer () in
      Snapshot.w_u8 w 9;
      Snapshot.r_opt (Snapshot.reader (Snapshot.contents w)) Snapshot.r_u8);
  let sorted keys =
    let w = Snapshot.writer () in
    Snapshot.w_list w Snapshot.w_int keys;
    Snapshot.r_sorted
      (Snapshot.reader (Snapshot.contents w))
      "keys" Snapshot.r_int
  in
  sorted [ 1; 2; 5 ];
  expect_corrupt "keys out of order" (fun () -> sorted [ 2; 1 ]);
  expect_corrupt "duplicate key" (fun () -> sorted [ 3; 3 ]);
  List.iter
    (fun (bytes, r_u) ->
      for cut = 0 to bytes - 1 do
        expect_corrupt
          (Printf.sprintf "%d of %d bytes" cut bytes)
          (fun () -> r_u (Snapshot.reader (String.make cut '\x01')))
      done)
    Snapshot.[ (1, r_u8); (2, r_u16); (3, r_u24); (4, r_u32) ];
  expect_corrupt "raw past the end" (fun () ->
      Snapshot.r_raw (Snapshot.reader "abc") 4);
  expect_corrupt "trailing bytes" (fun () ->
      let w = Snapshot.writer () in
      Snapshot.w_int w 1;
      Snapshot.w_int w 2;
      let r = Snapshot.reader (Snapshot.contents w) in
      ignore (Snapshot.r_int r);
      Snapshot.r_end r)

(* --- Snapshot: component codecs ------------------------------------- *)

let test_snapshot_rng () =
  let rng = Rng.create 99L in
  for _ = 1 to 5 do
    ignore (Rng.int rng 1000)
  done;
  let w = Snapshot.writer () in
  Snapshot.w_rng w rng;
  let rng' = Snapshot.r_rng (Snapshot.reader (Snapshot.contents w)) in
  check (Alcotest.list Alcotest.int) "restored stream continues identically"
    (List.init 8 (fun _ -> Rng.int rng 1000))
    (List.init 8 (fun _ -> Rng.int rng' 1000))

let sample_segment () =
  let hop link_out =
    {
      Segment.as_idx = 1;
      ingress = 0;
      egress = 2;
      link_in = -1;
      link_out;
      peers = [| 3; 5 |];
      expiry = 7200.0;
      mac = "\x01\xfe\x02";
    }
  in
  {
    Segment.kind = Segment.Core_seg;
    origin = 0;
    leaf = 2;
    timestamp = 600.0;
    expiry = 7200.0;
    hops = [| hop 0; hop 4 |];
    links = [| 0; 4 |];
  }

(* [v]'s bytes under [write], and the bytes of what [read] rebuilds from
   them (which must consume them exactly). *)
let roundtrip write read v =
  let bytes v =
    let w = Snapshot.writer () in
    write w v;
    Snapshot.contents w
  in
  let b = bytes v in
  let r = Snapshot.reader b in
  let v' = read r in
  Snapshot.r_end r;
  (b, bytes v', v')

let test_snapshot_segment () =
  let s = sample_segment () in
  let b, b', s' = roundtrip Segment.write Segment.read s in
  Alcotest.(check bool) "segment roundtrips" true (s = s' && b = b');
  List.iter
    (fun kind ->
      let _, _, s' =
        roundtrip Segment.write Segment.read { s with Segment.kind }
      in
      Alcotest.(check bool) "kind preserved" true (s'.Segment.kind = kind))
    [ Segment.Up; Segment.Down; Segment.Core_seg ]

let test_snapshot_registry () =
  let reg = Registry.create () in
  Registry.add reg "c" 2.5;
  Registry.add reg ~labels:[ ("k", "v"); ("a", "b") ] "c" 7.0;
  List.iter
    (Histogram.observe (Registry.histogram reg "h"))
    [ 0.1; 5.0; -2.0; 40.0 ];
  let b, b', reg' = roundtrip Registry.write Registry.read reg in
  Alcotest.(check bool) "registry bytes roundtrip" true (b = b');
  Alcotest.(check bool) "same series" true
    (Registry.snapshot reg = Registry.snapshot reg');
  let s = Histogram.summarize (Registry.histogram reg' "h") in
  check Alcotest.int "histogram observations survive" 4 s.Histogram.count;
  (* Tag 1, once a gauge, is no metric kind any more. *)
  let w = Snapshot.writer () in
  Snapshot.w_list w
    (fun w () ->
      Snapshot.w_str w "g";
      Snapshot.w_list w (fun _ () -> ()) [];
      Snapshot.w_u8 w 1;
      Snapshot.w_f64 w 1.0)
    [ () ];
  match Registry.read (Snapshot.reader (Snapshot.contents w)) with
  | _ -> Alcotest.fail "tag 1 accepted"
  | exception Snapshot.Corrupt _ -> ()

(* One soak gives real instances of every remaining component: beacon
   stores filled by dissemination, live link state, a path server with
   registrations and revocations, and beacon stats. *)
let soaked =
  lazy
    (let cfg = soak_config ~rounds:8 () in
     let t = Soak.create cfg in
     Soak.advance t ~upto:8;
     (cfg, t))

let test_snapshot_components_from_soak () =
  let _, t = Lazy.force soaked in
  let ctx = Soak.invariant_ctx t in
  let same what write read v =
    let b, b', _ = roundtrip write read v in
    Alcotest.(check bool) (what ^ " bytes roundtrip") true (b = b')
  in
  (* Beacon stores (at least one must be non-empty after 8 rounds). *)
  Array.iter (same "beacon store" Beacon_store.write Beacon_store.read)
    ctx.Invariants.stores;
  Alcotest.(check bool) "stores hold PCBs" true
    (Array.exists (fun s -> Beacon_store.total s > 0) ctx.Invariants.stores);
  (* Link state: a never-failed link's down-since time is nan, which
     the byte comparison checks bit-exactly. *)
  same "link state" Link_state.write Link_state.read ctx.Invariants.links;
  (* Path server (including its stats). *)
  match ctx.Invariants.path_server with
  | None -> Alcotest.fail "soak must run a path server"
  | Some ps ->
      Alcotest.(check bool) "path server saw registrations" true
        ((Path_server.stats ps).Path_server.registrations > 0);
      let b, b', ps' =
        roundtrip Path_server.write Path_server.read ps
      in
      Alcotest.(check bool) "path server bytes roundtrip" true (b = b');
      Alcotest.(check bool) "stats restored" true
        (Path_server.stats ps' = Path_server.stats ps)

let beacon_cfg =
  {
    Beaconing.default_config with
    Beaconing.algorithm = Beacon_policy.Baseline;
    duration = 600.0 *. 4.0;
  }

let engine_bytes e =
  let w = Snapshot.writer () in
  Beaconing.write w e;
  Snapshot.contents w

(* Every stored path, per AS and origin, as [Beacon_store.paths] lists
   them: a view of the stores that does not go through their codec. *)
let stored_paths e ~now =
  Array.map
    (fun st ->
      List.map
        (fun o -> (o, Beacon_store.paths st ~now ~origin:o))
        (Beacon_store.origins st))
    (Beaconing.engine_stores e)

let test_snapshot_beacon_stats () =
  let g = ring () in
  let e = Beaconing.engine g beacon_cfg in
  for round = 0 to 2 do
    Beaconing.engine_round e ~round
  done;
  let s = Beaconing.engine_stats e in
  Alcotest.(check bool) "stats have traffic" true (s.Beaconing.total_pcbs > 0);
  let b, b', e' =
    roundtrip Beaconing.write (fun r -> Beaconing.read r g beacon_cfg) e
  in
  Alcotest.(check bool) "engine bytes roundtrip" true (b = b');
  Alcotest.(check bool) "beacon stats roundtrip" true
    (Beaconing.engine_stats e' = s);
  Alcotest.(check bool) "stores roundtrip" true
    (stored_paths e' ~now:1200.0 = stored_paths e ~now:1200.0);
  (* The restored engine continues exactly as the written one. *)
  Beaconing.engine_round e ~round:3;
  Beaconing.engine_round e' ~round:3;
  Alcotest.(check bool) "next round identical" true
    (engine_bytes e' = engine_bytes e)

let core_graph ~ases links =
  let b = Graph.builder () in
  let c =
    Array.init ases (fun i -> Graph.add_as b ~core:true (Id.ia 1 (i + 1)))
  in
  List.iter (fun (x, y) -> Graph.add_link b ~rel:Graph.Core c.(x) c.(y)) links;
  Graph.freeze b

let test_beaconing_read_rejects_graph_mismatch () =
  let e = Beaconing.engine (ring ()) beacon_cfg in
  Beaconing.engine_round e ~round:0;
  let bytes = engine_bytes e in
  let expect_corrupt what g =
    match Beaconing.read (Snapshot.reader bytes) g beacon_cfg with
    | (_ : Beaconing.engine) ->
        Alcotest.fail (what ^ ": expected Snapshot.Corrupt")
    | exception Snapshot.Corrupt _ -> ()
  in
  (* The ring's five links over five ASes: one store too few. *)
  expect_corrupt "store count"
    (core_graph ~ases:5 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ]);
  (* Four ASes without the chord: interface arrays two too long. *)
  expect_corrupt "interface arrays"
    (core_graph ~ases:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ])

(* --- Checkpoint files ------------------------------------------------ *)

let test_checkpoint_roundtrip_and_corruption () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let payload = "\x00binary\xffpayload" ^ String.make 100 'z' in
  let path = Checkpoint.save ~dir ~name:"a.ckpt" ~schema:"s1" ~version:2 payload in
  Alcotest.(check bool) "save returns the file path" true (Sys.file_exists path);
  check Alcotest.string "load returns the payload" payload
    (Checkpoint.load ~dir ~name:"a.ckpt" ~schema:"s1" ~version:2);
  let expect_corrupt what f =
    match f () with
    | (_ : string) -> Alcotest.fail (what ^ ": expected Snapshot.Corrupt")
    | exception Snapshot.Corrupt _ -> ()
  in
  expect_corrupt "wrong schema" (fun () ->
      Checkpoint.load ~dir ~name:"a.ckpt" ~schema:"s2" ~version:2);
  expect_corrupt "wrong version" (fun () ->
      Checkpoint.load ~dir ~name:"a.ckpt" ~schema:"s1" ~version:3);
  (* Flip one payload byte on disk: the digest check must catch it. *)
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let flipped = Bytes.of_string raw in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc flipped;
  close_out oc;
  expect_corrupt "bit rot" (fun () ->
      Checkpoint.load ~dir ~name:"a.ckpt" ~schema:"s1" ~version:2);
  (* A foreign file fails on the magic, a truncated one on framing. *)
  let oc = open_out_bin (Filename.concat dir "b.ckpt") in
  output_string oc "not a checkpoint";
  close_out oc;
  expect_corrupt "bad magic" (fun () ->
      Checkpoint.load ~dir ~name:"b.ckpt" ~schema:"s1" ~version:2);
  let oc = open_out_bin (Filename.concat dir "c.ckpt") in
  output_string oc (String.sub raw 0 6);
  close_out oc;
  expect_corrupt "truncated" (fun () ->
      Checkpoint.load ~dir ~name:"c.ckpt" ~schema:"s1" ~version:2);
  (* A directory where the file should be is malformed input too. *)
  let sub = Filename.concat dir "d.ckpt" in
  Sys.mkdir sub 0o755;
  Fun.protect ~finally:(fun () -> Sys.rmdir sub) @@ fun () ->
  expect_corrupt "a directory" (fun () ->
      Checkpoint.load ~dir ~name:"d.ckpt" ~schema:"s1" ~version:2)

let test_checkpoint_series () =
  check Alcotest.string "numbered name" "soak.000008.ckpt"
    (Checkpoint.numbered_name ~prefix:"soak" ~n:8);
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Alcotest.(check bool) "no dir, no latest" true
    (Checkpoint.latest ~dir ~prefix:"soak" = None);
  List.iter
    (fun n ->
      ignore
        (Checkpoint.save ~dir
           ~name:(Checkpoint.numbered_name ~prefix:"soak" ~n)
           ~schema:"s" ~version:1
           (Printf.sprintf "payload-%d" n)))
    [ 4; 12; 8 ];
  (* Foreign files in the directory are ignored. *)
  let oc = open_out_bin (Filename.concat dir "other.txt") in
  output_string oc "x";
  close_out oc;
  match Checkpoint.latest ~dir ~prefix:"soak" with
  | None -> Alcotest.fail "series exists"
  | Some (n, name) ->
      check Alcotest.int "highest round wins" 12 n;
      check Alcotest.string "its filename" "soak.000012.ckpt" name;
      check Alcotest.string "and it loads" "payload-12"
        (Checkpoint.load ~dir ~name ~schema:"s" ~version:1)

(* --- Watchdog -------------------------------------------------------- *)

let test_watchdog () =
  let clock = ref 100.0 in
  let now () = !clock in
  let wd = Watchdog.start ~now ~label:"trial-3" (Some 5.0) in
  Watchdog.check wd;
  clock := 104.9;
  Watchdog.check wd;
  Alcotest.(check bool) "not yet expired" false (Watchdog.expired wd);
  clock := 105.2;
  Alcotest.(check bool) "expired" true (Watchdog.expired wd);
  (match Watchdog.check wd with
  | () -> Alcotest.fail "expected Timeout"
  | exception Watchdog.Timeout { label; budget_s; elapsed_s } ->
      check Alcotest.string "label" "trial-3" label;
      Alcotest.(check (float 1e-9)) "budget" 5.0 budget_s;
      Alcotest.(check (float 1e-9)) "elapsed tracks the clock" 5.2 elapsed_s);
  (* No budget: never fires, whatever the clock does. *)
  let free = Watchdog.start ~now ~label:"free" None in
  clock := 1.0e12;
  Watchdog.check free;
  Alcotest.(check bool) "budget-free never expires" false (Watchdog.expired free);
  match Watchdog.start ~now (Some 0.0) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Supervise.map --------------------------------------------------- *)

(* The seeds of every attempt of four always-failing jobs (3 retries),
   as [Supervise.map] hands them out, in (index, attempt) order. *)
let attempt_seeds ~base_seed =
  let seeds = Array.make 4 [] in
  ignore
    (Supervise.map ~retries:3 ~jobs:1 ~base_seed
       (fun ~obs:_ ~seed ~watchdog:_ i ->
         seeds.(i) <- seed :: seeds.(i);
         failwith "always")
       (Array.init 4 Fun.id));
  Array.map List.rev seeds

let test_attempt_seed () =
  let seeds = attempt_seeds ~base_seed:42L in
  check Alcotest.int64 "attempt 0 is the runner's job seed"
    (Runner.job_seed 42L 3)
    (List.hd seeds.(3));
  check Alcotest.int64 "attempt k re-derives from the job seed"
    (Runner.job_seed (Runner.job_seed 42L 3) 2)
    (List.nth seeds.(3) 2);
  Alcotest.(check bool) "deterministic" true
    (attempt_seeds ~base_seed:42L = seeds);
  let all = List.concat (Array.to_list seeds) in
  check Alcotest.int "four attempts per job" 16 (List.length all);
  check Alcotest.int "distinct across (index, attempt)" 16
    (List.length (List.sort_uniq Int64.compare all))

let test_supervised_map_retries () =
  (* A flaky job: fails on its first attempt, succeeds on the retry.
     jobs:1 keeps the attempt counters race-free. *)
  let attempts = Array.make 4 0 in
  let results, report =
    Supervise.map ~jobs:1 ~base_seed:5L
      (fun ~obs:_ ~seed:_ ~watchdog:_ i ->
        attempts.(i) <- attempts.(i) + 1;
        if i = 1 && attempts.(1) = 1 then failwith "flaky";
        i * 10)
      (Array.init 4 Fun.id)
  in
  check Alcotest.int "all jobs succeed" 0 (Run_report.n_failed report);
  check Alcotest.int "report counts the batch" 4 report.Run_report.jobs;
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check Alcotest.int "result" (i * 10) v
      | Error _ -> Alcotest.fail "no failures expected")
    results;
  check Alcotest.int "flaky job ran twice" 2 attempts.(1);
  check Alcotest.int "healthy jobs ran once" 1 attempts.(0);
  (* An always-failing job runs 1 + retries times and reports that
     count; its seeds are the distinct attempt seeds. *)
  List.iter
    (fun retries ->
      let seeds = ref [] in
      let results, report =
        Supervise.map ~retries ~jobs:1 ~base_seed:5L
          (fun ~obs:_ ~seed ~watchdog:_ () ->
            seeds := seed :: !seeds;
            failwith "always")
          [| () |]
      in
      let name = Printf.sprintf "retries:%d" retries in
      check Alcotest.int (name ^ " fails") 1 (Run_report.n_failed report);
      check Alcotest.int (name ^ " attempts run") (retries + 1)
        (List.length !seeds);
      check
        (Alcotest.list Alcotest.int64)
        (name ^ " attempt seeds")
        (List.init (retries + 1) (fun attempt ->
             if attempt = 0 then Runner.job_seed 5L 0
             else Runner.job_seed (Runner.job_seed 5L 0) attempt))
        (List.rev !seeds);
      match results.(0) with
      | Error (fl : Run_report.failure) ->
          check Alcotest.int (name ^ " attempts reported") (retries + 1)
            fl.Run_report.attempts
      | Ok () -> Alcotest.fail "expected a failure")
    [ 0; 2 ]

let test_supervised_map_degrades () =
  let f ~obs:_ ~seed:_ ~watchdog:_ i =
    if i = 2 then failwith "boom2" else i + 100
  in
  let run jobs =
    Supervise.map ~jobs ~base_seed:7L
      ~label_of:(Printf.sprintf "w%d")
      f (Array.init 5 Fun.id)
  in
  let results, report = run 2 in
  check Alcotest.int "one failure" 1 (Run_report.n_failed report);
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check Alcotest.int "survivors complete" (i + 100) v
      | Error (fl : Run_report.failure) ->
          check Alcotest.int "failing index" 2 fl.Run_report.index;
          check Alcotest.string "label" "w2" fl.Run_report.label;
          Alcotest.(check bool) "seed recorded" true
            (fl.Run_report.seed = Some (Runner.job_seed 7L 2));
          check Alcotest.int "default = 1 retry" 2 fl.Run_report.attempts;
          Alcotest.(check bool) "error text kept" true
            (contains fl.Run_report.error "boom2"))
    results;
  (* Outcomes are independent of the worker count (modulo backtraces). *)
  let strip (r, _) =
    Array.map
      (function
        | Ok v -> Ok v
        | Error (f : Run_report.failure) ->
            Error
              ( f.Run_report.index,
                f.Run_report.label,
                f.Run_report.seed,
                f.Run_report.attempts,
                f.Run_report.error ))
      r
  in
  Alcotest.(check bool) "jobs=1 and jobs=2 agree" true
    (strip (run 1) = strip (results, report))

(* --- Invariants ------------------------------------------------------ *)

let test_invariants_clean_soak () =
  let _, t = Lazy.force soaked in
  let ctx = Soak.invariant_ctx t in
  Alcotest.(check bool) "events were consumed" true (ctx.Invariants.cursor > 0);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "no violations" []
    (List.map
       (fun (v : Invariants.violation) ->
         (v.Invariants.check, v.Invariants.detail))
       (Invariants.check_all ctx))

let test_invariants_detect_replay_divergence () =
  let _, t = Lazy.force soaked in
  let ctx = Soak.invariant_ctx t in
  (* Rewinding the cursor makes the hold counts disagree with the
     replayed event prefix. *)
  let bad = { ctx with Invariants.cursor = 0 } in
  let vs = Invariants.check_all bad in
  Alcotest.(check bool) "replay divergence flagged" true
    (List.exists (fun v -> v.Invariants.check = "link-state") vs);
  match Invariants.check_exn bad with
  | () -> Alcotest.fail "expected Violated"
  | exception Invariants.Violated (_ :: _) -> ()

let test_invariants_detect_negative_holds () =
  let g = ring () in
  let n = Graph.num_links g in
  let links =
    let w = Snapshot.writer () in
    Snapshot.w_arr w Snapshot.w_int
      (Array.init n (fun l -> if l = 1 then -1 else 0));
    Snapshot.w_arr w Snapshot.w_f64 (Array.make n 0.0);
    Link_state.read (Snapshot.reader (Snapshot.contents w))
  in
  let ctx =
    {
      Invariants.graph = g;
      now = 0.0;
      links;
      stores = Array.init (Graph.n g) (fun _ -> Beacon_store.create ~limit:5);
      path_server = None;
      events = [||];
      cursor = 0;
    }
  in
  Alcotest.(check bool) "negative hold flagged" true
    (List.exists
       (fun (v : Invariants.violation) ->
         v.Invariants.check = "link-state"
         && contains v.Invariants.detail "negative")
       (Invariants.check_all ctx))

let test_invariants_detect_stale_stores () =
  (* Stores filled with every link up, then the whole fabric goes down
     without any revocation: every surviving PCB now violates
     store-links. *)
  let g = ring () in
  let outcome =
    Beaconing.run g
      {
        Beaconing.default_config with
        Beaconing.algorithm = Beacon_policy.Baseline;
        duration = 600.0 *. 4.0;
      }
  in
  let n = Graph.num_links g in
  let events =
    Array.init n (fun link ->
        { Fault_plan.time = 0.0; link; action = Fault_plan.Down })
  in
  let links = Link_state.create ~n_links:n in
  Array.iter
    (fun (e : Fault_plan.event) ->
      ignore
        (Link_state.apply links ~now:e.Fault_plan.time ~link:e.Fault_plan.link
           ~action:e.Fault_plan.action))
    events;
  let ctx =
    {
      Invariants.graph = g;
      now = 600.0 *. 4.0;
      links;
      stores = outcome.Beaconing.stores;
      path_server = None;
      events;
      cursor = n;
    }
  in
  Alcotest.(check bool) "PCBs over down links flagged" true
    (List.exists
       (fun (v : Invariants.violation) -> v.Invariants.check = "store-links")
       (Invariants.check_all ctx))

(* --- Soak: chunked determinism --------------------------------------- *)

let test_soak_chunked_byte_identical () =
  let cfg = soak_config () in
  let direct = Soak.create cfg in
  Soak.advance direct ~upto:12;
  let want = Soak.encode direct in
  (* Same horizon, but through encode/restore at two cut points. *)
  let t = Soak.create cfg in
  Soak.advance t ~upto:5;
  let t = Soak.restore cfg (Soak.encode t) in
  Soak.advance t ~upto:9;
  let t = Soak.restore cfg (Soak.encode t) in
  Soak.advance t ~upto:12;
  check Alcotest.int "rounds completed" 12 (Soak.round t);
  Alcotest.(check bool) "chunked run encodes byte-identically" true
    (want = Soak.encode t);
  Alcotest.(check bool) "and reports identically" true
    (Soak.report direct = Soak.report t);
  Alcotest.(check bool) "encode/restore is a fixpoint" true
    (Soak.encode (Soak.restore cfg want) = want)

(* One live engine across [advance] calls: stepping in uneven chunks
   without encode/restore gives the bytes of one call. *)
let test_soak_stepwise_advance () =
  let cfg = soak_config () in
  let direct = Soak.create cfg in
  Soak.advance direct ~upto:12;
  let t = Soak.create cfg in
  List.iter (fun upto -> Soak.advance t ~upto) [ 1; 2; 2; 7; 8; 12 ];
  Alcotest.(check bool) "links failed on the way" true
    ((Soak.report t).Soak.link_failures > 0);
  Alcotest.(check bool) "stepwise run encodes byte-identically" true
    (Soak.encode direct = Soak.encode t)

let test_soak_restore_rejects_mismatch () =
  let cfg = soak_config ~rounds:4 () in
  let t = Soak.create cfg in
  Soak.advance t ~upto:4;
  let bytes = Soak.encode t in
  let expect_corrupt what f =
    match f () with
    | (_ : Soak.t) -> Alcotest.fail (what ^ ": expected Snapshot.Corrupt")
    | exception Snapshot.Corrupt _ -> ()
  in
  expect_corrupt "different pair set" (fun () ->
      Soak.restore { cfg with Soak.pairs = [| (0, 2) |] } bytes);
  expect_corrupt "truncated bytes" (fun () ->
      Soak.restore cfg (String.sub bytes 0 (String.length bytes / 2)))

(* Each byte string below is well-framed but violates a constructor's
   precondition, so only the reader's own check stands between it and
   an [Invalid_argument]. *)
let expect_decode_corrupt read fill =
  let w = Snapshot.writer () in
  fill w;
  match read (Snapshot.reader (Snapshot.contents w)) with
  | _ -> Alcotest.fail "expected Snapshot.Corrupt"
  | exception Snapshot.Corrupt _ -> ()

let test_snapshot_rejects_store_limit () =
  (* Limit 0, no origins. *)
  expect_decode_corrupt Beacon_store.read (fun w ->
      Snapshot.w_int w 0;
      Snapshot.w_int w 0)

let test_snapshot_rejects_path_server_limit () =
  (* Limit 0, no down or core buckets, eight zeroed stats: eleven zeros. *)
  expect_decode_corrupt Path_server.read (fun w ->
      List.iter (Snapshot.w_int w) (List.init 11 (fun _ -> 0)))

let test_snapshot_rejects_link_state_lengths () =
  expect_decode_corrupt Link_state.read (fun w ->
      Snapshot.w_arr w Snapshot.w_int [| 0; 0 |];
      Snapshot.w_arr w Snapshot.w_f64 [| nan |])

let test_snapshot_rejects_histogram_growth () =
  List.iter
    (fun growth ->
      expect_decode_corrupt Histogram.read (fun w ->
          (* growth, count, sum, min, max, non-positive, no buckets *)
          Snapshot.w_f64 w growth;
          Snapshot.w_int w 0;
          Snapshot.w_f64 w 0.0;
          Snapshot.w_f64 w infinity;
          Snapshot.w_f64 w neg_infinity;
          Snapshot.w_int w 0;
          Snapshot.w_int w 0))
    [ 1.0; 0.5; nan; infinity; 2.0 ]

(* A mutation of a valid snapshot: flip one bit, overwrite one byte, or
   truncate. Positions wrap modulo the snapshot length. *)
let mutate s (kind, pos, v) =
  let n = String.length s in
  let pos = pos mod n in
  match kind with
  | 0 ->
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code s.[pos] lxor (1 lsl (v land 7))));
      Bytes.to_string b
  | 1 ->
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (v land 0xFF));
      Bytes.to_string b
  | _ -> String.sub s 0 pos

(* qcheck: a restorer fed a mutated mid-run snapshot either returns or
   raises [Snapshot.Corrupt], never anything else. *)
let prop_restore_total ~name restore snapshot =
  QCheck.Test.make ~name ~count:200
    QCheck.(triple (int_bound 2) (int_bound 1_000_000) (int_bound 255))
    (fun m ->
      let s = Lazy.force snapshot in
      match restore (mutate s m) with
      | _ -> true
      | exception Snapshot.Corrupt _ -> true)

let prop_soak_restore_total =
  let cfg = soak_config () in
  prop_restore_total ~name:"soak restore raises only Corrupt" (Soak.restore cfg)
    (lazy
      (let t = Soak.create cfg in
       Soak.advance t ~upto:6;
       Soak.encode t))

(* Every single-bit flip of a valid snapshot either raises
   [Snapshot.Corrupt] or decodes to a state that re-encodes to exactly
   the flipped bytes: the decoders accept only what the encoder can
   have written. Fails with the first offending flips. *)
let check_bit_flips ~restore ~encode s =
  let bad = ref [] in
  for pos = String.length s - 1 downto 0 do
    for bit = 7 downto 0 do
      let m = mutate s (0, pos, bit) in
      match restore m with
      | exception Snapshot.Corrupt _ -> ()
      | t -> if encode t <> m then bad := (pos, bit) :: !bad
    done
  done;
  match !bad with
  | [] -> ()
  | l ->
      Alcotest.failf "%d of %d flips decode to a different encoding: %s"
        (List.length l)
        (8 * String.length s)
        (String.concat " "
           (List.filteri (fun i _ -> i < 20) l
           |> List.map (fun (pos, bit) -> Printf.sprintf "%d.%d" pos bit)))

(* The same contract for wider corruptions: every byte overwritten with
   0x00 and with 0xFF, then every 8-byte window (a length or integer
   field wherever one starts) replaced by big-endian -1, 0, 1 and
   2^62. Mutants are labelled [pos=byte] and [pos:value]. *)
let check_overwrites ~restore ~encode s =
  let n = String.length s in
  let with_bytes f =
    let b = Bytes.of_string s in
    f b;
    Bytes.to_string b
  in
  let bytes =
    Seq.init n Fun.id
    |> Seq.concat_map (fun pos ->
           List.to_seq
             (List.map
                (fun c ->
                  ( Printf.sprintf "%d=%02x" pos (Char.code c),
                    with_bytes (fun b -> Bytes.set b pos c) ))
                [ '\x00'; '\xff' ]))
  in
  let windows =
    Seq.init (max 0 (n - 7)) Fun.id
    |> Seq.concat_map (fun pos ->
           List.to_seq
             (List.map
                (fun v ->
                  ( Printf.sprintf "%d:%Ld" pos v,
                    with_bytes (fun b -> Bytes.set_int64_be b pos v) ))
                [ -1L; 0L; 1L; Int64.shift_left 1L 62 ]))
  in
  let bad = ref [] and tried = ref 0 in
  Seq.iter
    (fun (label, m) ->
      incr tried;
      match restore m with
      | exception Snapshot.Corrupt _ -> ()
      | t -> if encode t <> m then bad := label :: !bad)
    (Seq.append bytes windows);
  match List.rev !bad with
  | [] -> ()
  | l ->
      Alcotest.failf "%d of %d overwrites decode to a different encoding: %s"
        (List.length l) !tried
        (String.concat " " (List.filteri (fun i _ -> i < 20) l))

let test_soak_bit_flips () =
  let cfg = soak_config () in
  let t = Soak.create cfg in
  Soak.advance t ~upto:6;
  check_bit_flips ~restore:(Soak.restore cfg) ~encode:Soak.encode
    (Soak.encode t)

let test_soak_overwrites () =
  let cfg = soak_config () in
  let t = Soak.create cfg in
  Soak.advance t ~upto:6;
  check_overwrites ~restore:(Soak.restore cfg) ~encode:Soak.encode
    (Soak.encode t)

let test_soak_config_key () =
  let cfg = soak_config () in
  check Alcotest.string "stable fingerprint" (Soak.config_key cfg)
    (Soak.config_key (soak_config ()));
  Alcotest.(check bool) "plan seed changes it" true
    (Soak.config_key cfg <> Soak.config_key (soak_config ~seed:2L ()));
  Alcotest.(check bool) "storage limit changes it" true
    (Soak.config_key cfg <> Soak.config_key (soak_config ~limit:6 ()))

(* --- Supervise.run_cells ----------------------------------------------- *)

(* A fake cell: a counter whose encoding is its decimal value. Cell [i]
   starts at [i] and each chunk adds the step it advances to, so the
   final value depends on every chunk having run exactly once. *)
let counter_cells n =
  {
    Supervise.name = "counter";
    fingerprint = Printf.sprintf "counter/%d;" n;
    labels = Array.init n (Printf.sprintf "c%d");
    create = (fun i -> ref i);
    restore =
      (fun _ s ->
        match int_of_string_opt s with
        | Some v -> ref v
        | None -> raise (Snapshot.Corrupt "counter"));
    advance = (fun ~watchdog:_ t ~upto -> t := !t + upto);
    encode = (fun t -> string_of_int !t);
    check = ignore;
  }

let counter_schema n = "counter:" ^ Sha256.hex (Printf.sprintf "counter/%d;" n)

(* Horizon 7 in 1-step chunks, checkpoints at steps 2, 4, 6 and 7. *)
let run_counters ?(n = 3) ?dir ?(resume = false) ?kill_after ?inject_fail ~jobs
    () =
  let cli =
    {
      Supervise.default_cli with
      Supervise.checkpoint_every = 2;
      checkpoint_dir = dir;
      resume;
      kill_after;
      inject_fail;
    }
  in
  Supervise.run_cells ~cli ~jobs ~seed:9L ~horizon:7 ~chunk:1 (counter_cells n)

(* Everything but the backtrace, which is not part of the contract. *)
let strip_failure (f : Run_report.failure) =
  (f.Run_report.index, f.Run_report.label, f.Run_report.seed,
   f.Run_report.attempts, f.Run_report.error)

let strip_run (states, (report : Run_report.t)) =
  ( Array.map
      (function Ok t -> Ok !t | Error f -> Error (strip_failure f))
      states,
    report.Run_report.jobs,
    List.map strip_failure report.Run_report.failures )

let kill_counters ?inject_fail ~dir ~jobs () =
  match run_counters ?inject_fail ~dir ~kill_after:1 ~jobs () with
  | _ -> Alcotest.fail "expected Supervise.Killed"
  | exception Supervise.Killed { checkpoints } ->
      check Alcotest.int "killed at the first checkpoint" 1 checkpoints

let test_run_cells_kill_and_resume () =
  let want = strip_run (run_counters ~jobs:1 ()) in
  let states, _, _ = want in
  (* 1+2+...+7 = 28 on top of the cell's start value. *)
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "every chunk ran once" true (r = Ok (i + 28)))
    states;
  List.iter
    (fun jobs ->
      let dir = fresh_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      kill_counters ~dir ~jobs ();
      Alcotest.(check bool) "only the first checkpoint exists" true
        (Checkpoint.latest ~dir ~prefix:"counter"
        = Some (2, "counter.000002.ckpt"));
      Alcotest.(check bool)
        (Printf.sprintf "resumed = uninterrupted (jobs %d)" jobs)
        true
        (strip_run (run_counters ~dir ~resume:true ~jobs ()) = want))
    [ 1; 2 ]

(* The checkpoint payload format is fixed: the step, then one status per
   cell (tag 0 + snapshot bytes, or tag 1 + the failure record). *)
let test_run_cells_checkpoint_format () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  kill_counters ~dir ~jobs:1 ();
  let w = Snapshot.writer () in
  Snapshot.w_int w 2;
  Snapshot.w_arr w
    (fun w v ->
      Snapshot.w_u8 w 0;
      Snapshot.w_str w (string_of_int v))
    [| 3; 4; 5 |];
  check Alcotest.string "payload bytes" (Snapshot.contents w)
    (Checkpoint.load ~dir ~name:"counter.000002.ckpt" ~schema:(counter_schema 3)
       ~version:1)

(* The schema is the cells' name and the SHA-256 of their fingerprint
   text, hashed once: a checkpoint written by run_cells loads with it. *)
let test_run_cells_schema () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  kill_counters ~dir ~jobs:1 ();
  let c = counter_cells 3 in
  let schema = c.Supervise.name ^ ":" ^ Sha256.hex c.Supervise.fingerprint in
  match
    Checkpoint.load ~dir ~name:"counter.000002.ckpt" ~schema ~version:1
  with
  | (_ : string) -> ()
  | exception Snapshot.Corrupt reason -> Alcotest.fail reason

(* A checkpoint cut to 100 bytes (the CI probe) ends right after the
   payload's length field: the reason names the truncation, not an
   implausible length. *)
let test_run_cells_reports_truncated_checkpoint () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  kill_counters ~dir ~jobs:1 ();
  let path = Filename.concat dir "counter.000002.ckpt" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub data 0 100);
  close_out oc;
  match run_counters ~dir ~resume:true ~jobs:1 () with
  | _ -> Alcotest.fail "a truncated checkpoint resumed"
  | exception Supervise.Bad_checkpoint { reason; _ } ->
      check Alcotest.string "reason"
        (Printf.sprintf
           "input truncated: a string of length %d is declared at byte 100, \
            but the input ends at byte 100"
           (* The payload is all but the 100-byte head and the
              length-prefixed 32-byte digest. *)
           (String.length data - 100 - 8 - 32))
        reason

let test_run_cells_inject_fail_survives_resume () =
  let want = strip_run (run_counters ~inject_fail:1 ~jobs:1 ()) in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  kill_counters ~inject_fail:1 ~dir ~jobs:2 ();
  (* Resume without the injection: the failure must come back from the
     checkpoint, still at its own index. *)
  let ((states, _, failures) as got) =
    strip_run (run_counters ~dir ~resume:true ~jobs:2 ())
  in
  Alcotest.(check bool) "same as uninterrupted" true (got = want);
  (match states.(1) with
  | Error (index, label, _, attempts, error) ->
      check Alcotest.int "own index" 1 index;
      check Alcotest.string "own label" "c1" label;
      check Alcotest.int "retried once" 2 attempts;
      Alcotest.(check bool) "injected error kept" true
        (contains error "injected failure")
  | Ok _ -> Alcotest.fail "cell 1 should stay failed");
  Alcotest.(check bool) "other cells complete" true
    (states.(0) = Ok 28 && states.(2) = Ok 30);
  check Alcotest.int "one failure reported" 1 (List.length failures)

(* An injection index that names no cell would silently inject nothing;
   it is rejected before any cell is created. *)
let test_run_cells_rejects_out_of_range_inject_fail () =
  List.iter
    (fun k ->
      let created = ref 0 in
      let cells =
        {
          (counter_cells 3) with
          Supervise.create =
            (fun i ->
              incr created;
              ref i);
        }
      in
      let cli = { Supervise.default_cli with Supervise.inject_fail = Some k } in
      (match
         Supervise.run_cells ~cli ~jobs:1 ~seed:9L ~horizon:7 ~chunk:1 cells
       with
      | _ -> Alcotest.fail (Printf.sprintf "inject_fail %d accepted" k)
      | exception Supervise.Inject_fail_out_of_range { index; cells } ->
          check Alcotest.(pair int int) "reported index and cell count" (k, 3)
            (index, cells));
      check Alcotest.int (Printf.sprintf "no cell ran (inject_fail %d)" k) 0
        !created)
    [ 3; 99; -1 ]

let test_run_cells_rejects_foreign_checkpoint () =
  (* A checkpoint of another configuration (the 4-cell series) found by
     a 3-cell run on resume is a data error: Bad_checkpoint names the
     file and the schema mismatch, and no cell is created or advanced. *)
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore
    (Checkpoint.save ~dir ~name:"counter.000002.ckpt"
       ~schema:(counter_schema 4) ~version:1 "payload");
  let touched = ref 0 in
  let base = counter_cells 3 in
  let cells =
    {
      base with
      Supervise.create =
        (fun i ->
          incr touched;
          base.Supervise.create i);
      restore =
        (fun i s ->
          incr touched;
          base.Supervise.restore i s);
    }
  in
  let cli =
    {
      Supervise.default_cli with
      Supervise.checkpoint_every = 2;
      checkpoint_dir = Some dir;
      resume = true;
    }
  in
  (match
     Supervise.run_cells ~cli ~jobs:1 ~seed:9L ~horizon:7 ~chunk:1 cells
   with
  | _ -> Alcotest.fail "a foreign checkpoint resumed"
  | exception Supervise.Bad_checkpoint { file; reason } ->
      check Alcotest.string "names the file"
        (Filename.concat dir "counter.000002.ckpt")
        file;
      Alcotest.(check bool) "reason is the schema mismatch" true
        (String.starts_with ~prefix:"checkpoint schema" reason));
  check Alcotest.int "no cell ran" 0 !touched

let test_run_cells_rejects_bad_progress () =
  let frame what payload =
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    ignore
      (Checkpoint.save ~dir ~name:"counter.000002.ckpt"
         ~schema:(counter_schema 3) ~version:1 payload);
    match run_counters ~dir ~resume:true ~jobs:1 () with
    | _ -> Alcotest.fail (what ^ ": expected Supervise.Bad_checkpoint")
    | exception Supervise.Bad_checkpoint { file; _ } ->
        check Alcotest.string (what ^ ": names the file")
          (Filename.concat dir "counter.000002.ckpt")
          file
    | exception e ->
        Alcotest.fail (what ^ ": raised " ^ Printexc.to_string e)
  in
  let progress ~step statuses =
    let w = Snapshot.writer () in
    Snapshot.w_int w step;
    Snapshot.w_arr w (fun w f -> f w) statuses;
    Snapshot.contents w
  in
  let ok v w =
    Snapshot.w_u8 w 0;
    Snapshot.w_str w (string_of_int v)
  in
  let failed index w =
    Snapshot.w_u8 w 1;
    Snapshot.w_int w index;
    Snapshot.w_str w "c";
    Snapshot.w_opt w Snapshot.w_i64 None;
    Snapshot.w_int w 1;
    Snapshot.w_str w "boom";
    Snapshot.w_str w ""
  in
  let good = progress ~step:2 [| ok 3; ok 4; ok 5 |] in
  frame "wrong cell count" (progress ~step:2 [| ok 3; ok 4 |]);
  frame "bad status tag"
    (progress ~step:2 [| ok 3; (fun w -> Snapshot.w_u8 w 7); ok 5 |]);
  frame "truncated payload" (String.sub good 0 (String.length good - 1));
  frame "trailing bytes" (good ^ "\x00");
  frame "step past the horizon" (progress ~step:8 [| ok 3; ok 4; ok 5 |]);
  frame "negative step" (progress ~step:(-1) [| ok 3; ok 4; ok 5 |]);
  frame "failure index differs from its position"
    (progress ~step:2 [| ok 3; ok 4; failed 1 |]);
  (* Sanity: the well-formed payload resumes. *)
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore
    (Checkpoint.save ~dir ~name:"counter.000002.ckpt"
       ~schema:(counter_schema 3) ~version:1 good);
  Alcotest.(check bool) "well-formed progress resumes" true
    (strip_run (run_counters ~dir ~resume:true ~jobs:1 ())
    = strip_run (run_counters ~jobs:1 ()))

(* qcheck: whatever the fault-plan seed and wherever the run is cut,
   save -> load -> invariant-check -> re-save is byte-stable and the
   resumed run converges on the direct run's bytes. *)
let prop_soak_resume_byte_identical =
  QCheck.Test.make ~name:"soak resume is byte-identical under any cut" ~count:10
    QCheck.(pair (int_bound 1000) (int_bound 6))
    (fun (seed, cut) ->
      let rounds = 8 in
      let cut = 1 + cut in
      let cfg = soak_config ~seed:(Int64.of_int (seed + 1)) ~rounds () in
      let direct = Soak.create cfg in
      Soak.advance direct ~upto:rounds;
      let want = Soak.encode direct in
      let t = Soak.create cfg in
      Soak.advance t ~upto:cut;
      let frozen = Soak.encode t in
      let thawed = Soak.restore cfg frozen in
      (* The checkpointed state is internally consistent and re-encodes
         to the same bytes before advancing further. *)
      Invariants.check_all (Soak.invariant_ctx thawed) = []
      && Soak.encode thawed = frozen
      &&
      (Soak.advance thawed ~upto:rounds;
       Soak.encode thawed = want))

let suite =
  [
    ("snapshot primitives", `Quick, test_snapshot_primitives);
    ("snapshot i64 wire format", `Quick, test_snapshot_i64_wire_format);
    ("snapshot corruption", `Quick, test_snapshot_corruption);
    ("snapshot rng", `Quick, test_snapshot_rng);
    ("snapshot segment", `Quick, test_snapshot_segment);
    ("snapshot registry", `Quick, test_snapshot_registry);
    ("snapshot soak components", `Quick, test_snapshot_components_from_soak);
    ("snapshot beacon stats", `Quick, test_snapshot_beacon_stats);
    ( "beaconing read rejects graph mismatch",
      `Quick,
      test_beaconing_read_rejects_graph_mismatch );
    ("checkpoint roundtrip/corruption", `Quick, test_checkpoint_roundtrip_and_corruption);
    ("checkpoint series", `Quick, test_checkpoint_series);
    ("watchdog", `Quick, test_watchdog);
    ("attempt seeds", `Quick, test_attempt_seed);
    ("supervised map retries", `Quick, test_supervised_map_retries);
    ("supervised map degrades", `Quick, test_supervised_map_degrades);
    ("invariants: clean soak", `Quick, test_invariants_clean_soak);
    ("invariants: replay divergence", `Quick, test_invariants_detect_replay_divergence);
    ("invariants: negative holds", `Quick, test_invariants_detect_negative_holds);
    ("invariants: stale stores", `Quick, test_invariants_detect_stale_stores);
    ("soak chunked determinism", `Slow, test_soak_chunked_byte_identical);
    ("soak stepwise advance", `Quick, test_soak_stepwise_advance);
    ("soak restore rejects mismatch", `Quick, test_soak_restore_rejects_mismatch);
    ("snapshot rejects store limit", `Quick, test_snapshot_rejects_store_limit);
    ( "snapshot rejects path-server limit",
      `Quick,
      test_snapshot_rejects_path_server_limit );
    ( "snapshot rejects link-state lengths",
      `Quick,
      test_snapshot_rejects_link_state_lengths );
    ( "snapshot rejects histogram growth",
      `Quick,
      test_snapshot_rejects_histogram_growth );
    ("soak config key", `Quick, test_soak_config_key);
    ("run_cells kill and resume", `Quick, test_run_cells_kill_and_resume);
    ("run_cells checkpoint format", `Quick, test_run_cells_checkpoint_format);
    ("run_cells schema", `Quick, test_run_cells_schema);
    ( "run_cells reports a truncated checkpoint",
      `Quick,
      test_run_cells_reports_truncated_checkpoint );
    ( "run_cells inject-fail survives resume",
      `Quick,
      test_run_cells_inject_fail_survives_resume );
    ( "run_cells rejects out-of-range inject-fail",
      `Quick,
      test_run_cells_rejects_out_of_range_inject_fail );
    ( "run_cells reports a foreign checkpoint",
      `Quick,
      test_run_cells_rejects_foreign_checkpoint );
    ( "run_cells rejects bad progress",
      `Quick,
      test_run_cells_rejects_bad_progress );
    QCheck_alcotest.to_alcotest prop_soak_resume_byte_identical;
    QCheck_alcotest.to_alcotest prop_soak_restore_total;
    ("soak bit flips decode canonically", `Quick, test_soak_bit_flips);
    ( "soak byte overwrites decode canonically",
      `Quick,
      test_soak_overwrites );
  ]
