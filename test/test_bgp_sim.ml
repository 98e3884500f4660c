(* Tests for the event-driven BGP simulator: convergence to the
   closed-form shortest-path (full-transit) solution, withdrawals, link
   failures, MRAI pacing and churn accounting. *)

let check = Alcotest.check

(* The same policy graph as test_bgp. *)
let policy_graph () =
  let b = Graph.builder () in
  for i = 0 to 6 do
    ignore (Graph.add_as b ~tier:(if i < 2 then 1 else if i < 5 then 2 else 3) (Id.ia 1 (i + 1)))
  done;
  Graph.add_link b ~rel:Graph.Peering 0 1;
  Graph.add_link b ~rel:Graph.Provider_customer 0 2;
  Graph.add_link b ~rel:Graph.Provider_customer 0 3;
  Graph.add_link b ~rel:Graph.Provider_customer 1 4;
  Graph.add_link b ~rel:Graph.Provider_customer 2 5;
  Graph.add_link b ~rel:Graph.Provider_customer 3 6;
  Graph.add_link b ~rel:Graph.Provider_customer 4 6;
  Graph.freeze b

let converged_sim g =
  let t = Bgp_sim.create g in
  Bgp_sim.announce_all t;
  ignore (Bgp_sim.run_to_quiescence t);
  t

(* Every AS provides transit, so the converged best path is a shortest
   path: [Bgp_routes.shortest_multipath] gives one per shortest next
   hop, and the simulator breaks ties to the lowest next hop. *)
let check_closed_form g =
  let t = converged_sim g in
  for dst = 0 to Graph.n g - 1 do
    for src = 0 to Graph.n g - 1 do
      if src <> dst then begin
        match
          ( Bgp_sim.best_path t ~src ~prefix:dst,
            Bgp_routes.shortest_multipath g ~src ~dst )
        with
        | Some p_sim, (p_cf :: _ as paths) ->
            check Alcotest.int
              (Printf.sprintf "path length %d->%d" src dst)
              (List.length p_cf) (List.length p_sim);
            let next_hop p = List.nth p 1 in
            check Alcotest.int
              (Printf.sprintf "lowest next hop %d->%d" src dst)
              (List.fold_left (fun m p -> min m (next_hop p)) max_int paths)
              (next_hop p_sim);
            Alcotest.(check bool)
              (Printf.sprintf "one of the shortest paths %d->%d" src dst)
              true (List.mem p_sim paths)
        | None, [] -> ()
        | Some _, [] ->
            Alcotest.failf "sim found a route %d->%d, model did not" src dst
        | None, _ :: _ -> Alcotest.failf "sim missing route %d->%d" src dst
      end
    done
  done

let test_converges_to_closed_form () =
  check_closed_form (policy_graph ());
  check_closed_form (Exp_common.prepare Exp_common.Tiny).Exp_common.core

let test_loop_free () =
  let g = policy_graph () in
  let t = converged_sim g in
  for src = 0 to 6 do
    for dst = 0 to 6 do
      match Bgp_sim.best_path t ~src ~prefix:dst with
      | None -> ()
      | Some p ->
          check Alcotest.int "no repeated AS" (List.length p)
            (List.length (List.sort_uniq compare p))
    done
  done

let test_withdraw_cascades () =
  let g = policy_graph () in
  let t = converged_sim g in
  Bgp_sim.withdraw_origin t ~origin:6;
  ignore (Bgp_sim.run_to_quiescence t);
  for src = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "AS %d dropped the route" src)
      true
      (Bgp_sim.best_path t ~src ~prefix:6 = None)
  done;
  let st = Bgp_sim.stats t in
  Alcotest.(check bool) "withdrawals were sent" true (st.Bgp_sim.withdrawals_sent > 0)

let test_link_failure_reroute () =
  let g = policy_graph () in
  let t = converged_sim g in
  (* S2 (6) is dual-homed via M2 (3) and M3 (4). Fail the 3-6 link. *)
  let l36 = (List.hd (Graph.links_between g 3 6)).Graph.link_id in
  (match Bgp_sim.best_path t ~src:3 ~prefix:6 with
  | Some [ 3; 6 ] -> ()
  | p -> Alcotest.failf "unexpected initial path %s"
           (match p with None -> "none" | Some q -> String.concat "," (List.map string_of_int q)));
  Bgp_sim.reset_stats t;
  Bgp_sim.fail_link t l36;
  ignore (Bgp_sim.run_to_quiescence t);
  (match Bgp_sim.best_path t ~src:3 ~prefix:6 with
  | Some p ->
      Alcotest.(check bool) "rerouted around the failed link" true
        (List.length p > 2)
  | None -> Alcotest.fail "3 must still reach 6");
  let st = Bgp_sim.stats t in
  Alcotest.(check bool) "churn updates counted" true
    (st.Bgp_sim.updates_sent + st.Bgp_sim.withdrawals_sent > 0)

let test_parallel_link_sessions () =
  (* Two parallel links: failing one must not disturb routing. *)
  let b = Graph.builder () in
  let x = Graph.add_as b ~core:true (Id.ia 1 1) in
  let y = Graph.add_as b ~core:true (Id.ia 1 2) in
  Graph.add_link b ~count:2 ~rel:Graph.Peering x y;
  let g = Graph.freeze b in
  let t = converged_sim g in
  Bgp_sim.reset_stats t;
  Bgp_sim.fail_link t 0;
  ignore (Bgp_sim.run_to_quiescence t);
  Alcotest.(check bool) "route survives on the second link" true
    (Bgp_sim.best_path t ~src:x ~prefix:y <> None);
  let st = Bgp_sim.stats t in
  check Alcotest.int "no churn for a redundant link" 0
    (st.Bgp_sim.updates_sent + st.Bgp_sim.withdrawals_sent);
  (* Failing the second one kills the session. *)
  Bgp_sim.fail_link t 1;
  ignore (Bgp_sim.run_to_quiescence t);
  Alcotest.(check bool) "route gone" true (Bgp_sim.best_path t ~src:x ~prefix:y = None)

let test_adj_rib_in_multipath () =
  let g = policy_graph () in
  let t = converged_sim g in
  (* T1a (0) hears about S2 (6) from M2 (3), which is adjacent to it. *)
  let pool = Bgp_sim.adj_rib_in_paths t ~src:0 ~prefix:6 in
  Alcotest.(check bool) "at least one offer" true (pool <> []);
  List.iter
    (fun p ->
      check Alcotest.int "rooted at src" 0 (List.hd p);
      check Alcotest.int "ends at origin" 6 (List.nth p (List.length p - 1)))
    pool

let test_mrai_paces_updates () =
  (* The §5.1 MRAI of 15 s: a session sends its messages of one instant
     as a batch, and its next batch no earlier than 15 s later. Every AS
     announces its own prefix at 0 s and learns the others within
     milliseconds, so those wait for the MRAI. *)
  let sends = Hashtbl.create 16 in
  let sink (e : Trace.event) =
    if e.Trace.category = "bgp" && e.Trace.message = "update sent" then begin
      let field k = List.assoc k e.Trace.fields in
      let session = (field "from", field "to") in
      let prev = Option.value ~default:[] (Hashtbl.find_opt sends session) in
      Hashtbl.replace sends session (e.Trace.time :: prev)
    end
  in
  let trace = Trace.create ~sink:(Trace.Custom sink) Trace.Debug in
  let obs = Obs.create ~trace () in
  let t = Bgp_sim.create ~obs (policy_graph ()) in
  Bgp_sim.announce_all t;
  ignore (Bgp_sim.run_to_quiescence t);
  let paced = ref 0 in
  Hashtbl.iter
    (fun (a, b) times ->
      let instants = List.sort_uniq Float.compare times in
      if List.length instants > 1 then incr paced;
      ignore
        (List.fold_left
           (fun prev at ->
             if at -. prev < 15.0 -. 1e-9 then
               Alcotest.failf "session %s->%s sent at %g s and %g s" a b prev
                 at;
             at)
           (List.hd instants) (List.tl instants)))
    sends;
  Alcotest.(check bool) "some session waited for the mrai" true (!paced > 0);
  Alcotest.(check bool) "converged after one mrai" true
    ((Bgp_sim.stats t).Bgp_sim.last_route_change >= 15.0)

let test_quiescence_time_positive () =
  let g = policy_graph () in
  let t = Bgp_sim.create g in
  Bgp_sim.announce_all t;
  let tq = Bgp_sim.run_to_quiescence t in
  Alcotest.(check bool) "time advanced" true (tq > 0.0);
  let st = Bgp_sim.stats t in
  Alcotest.(check bool) "convergence marker set" true (st.Bgp_sim.last_route_change > 0.0);
  Alcotest.(check bool) "marker before quiescence" true
    (st.Bgp_sim.last_route_change <= tq)

let test_generated_topology_full_reachability () =
  let g = Caida_like.generate { Caida_like.small_params with Caida_like.n = 60 } in
  let t = converged_sim g in
  let missing = ref 0 in
  for src = 0 to Graph.n g - 1 do
    for dst = 0 to Graph.n g - 1 do
      if src <> dst && Bgp_sim.best_path t ~src ~prefix:dst = None then incr missing
    done
  done;
  check Alcotest.int "every AS reaches every prefix" 0 !missing

(* Oracle for the message-size accounting behind Fig. 5's BGP
   normaliser (RFC 4271 / RFC 8205), computed by hand rather than by
   calling [Wire]. The topology is a 4-AS provider chain
   0 > 1 > 2 > 3 (each AS is the provider of the next). *)
let line_graph () =
  let b = Graph.builder () in
  for i = 0 to 3 do
    ignore (Graph.add_as b ~tier:(i + 1) (Id.ia 1 (i + 1)))
  done;
  for i = 0 to 2 do
    Graph.add_link b ~rel:Graph.Provider_customer i (i + 1)
  done;
  Graph.freeze b

(* RFC 4271 UPDATE announcing one prefix over an AS_PATH of [n]
   4-byte ASNs, summed field by field: header 19 (marker 16 + length 2
   + type 1), withdrawn routes length 2, total path attribute length 2,
   ORIGIN 4 (flags, type, length, value), AS_PATH (attribute header 3,
   segment type 1 + segment length 1, 4 per ASN), NEXT_HOP 7 (header 3
   + IPv4 4), one NLRI 5 (length 1 + prefix 4). *)
let plain_update_bytes = function
  | 1 -> 19 + 2 + 2 + 4 + (3 + 2 + 4) + 7 + 5
  | 2 -> 19 + 2 + 2 + 4 + (3 + 2 + 4 + 4) + 7 + 5
  | 3 -> 19 + 2 + 2 + 4 + (3 + 2 + 4 + 4 + 4) + 7 + 5
  | 4 -> 19 + 2 + 2 + 4 + (3 + 2 + 4 + 4 + 4 + 4) + 7 + 5
  | n -> Alcotest.failf "no hand-computed size for path length %d" n

(* RFC 4271 UPDATE withdrawing one prefix: header 19, withdrawn routes
   length 2, one withdrawn route 5, total path attribute length 2. *)
let withdraw_bytes = 19 + 2 + 5 + 2

(* RFC 8205 UPDATE for one prefix over [n] hops with 96-byte
   signatures: header 19, withdrawn routes length 2, total path
   attribute length 2, ORIGIN 4, NEXT_HOP 7, one NLRI 5; Secure_Path
   length 2, then 6 per hop (pCount 1 + flags 1 + ASN 4);
   Signature_Block length 2 + algorithm suite 1, then per hop SKI 20 +
   signature length 2 + signature 96. The BGPsec_PATH attribute's own
   header (flags, type, extended length) is not counted, as in
   [Wire]. *)
let bgpsec_update_bytes = function
  | 1 -> 19 + 2 + 2 + 4 + 7 + 5 + (2 + 6) + (3 + (20 + 2 + 96))
  | 2 -> 19 + 2 + 2 + 4 + 7 + 5 + (2 + 6 + 6) + (3 + ((20 + 2 + 96) * 2))
  | 3 ->
      19 + 2 + 2 + 4 + 7 + 5 + (2 + 6 + 6 + 6) + (3 + ((20 + 2 + 96) * 3))
  | 4 ->
      19 + 2 + 2 + 4 + 7 + 5
      + (2 + 6 + 6 + 6 + 6)
      + (3 + ((20 + 2 + 96) * 4))
  | n -> Alcotest.failf "no hand-computed size for path length %d" n

(* Initial convergence on the chain. Every AS has exactly one loop-free
   route per prefix, so each best route is installed once and every
   (AS, neighbor, prefix) export is sent exactly once. Every AS
   provides transit, so each route goes to every neighbor (including
   the one it came from). Sender: prefix -> receivers (AS_PATH
   length).
     AS 0: p0 -> 1 (1); p1 -> 1 (2); p2 -> 1 (3); p3 -> 1 (4)
     AS 1: p0 -> 0,2 (2); p1 -> 0,2 (1); p2 -> 0,2 (2); p3 -> 0,2 (3)
     AS 2: p0 -> 1,3 (3); p1 -> 1,3 (2); p2 -> 1,3 (1); p3 -> 1,3 (2)
     AS 3: p0 -> 2 (4); p1 -> 2 (3); p2 -> 2 (2); p3 -> 2 (1)
   24 updates: 6 of length 1, 10 of length 2, 6 of length 3, 2 of
   length 4. Then AS 3 withdraws its prefix: 3 -> 2, 2 -> 1,3,
   1 -> 0,2, 0 -> 1 (every AS had announced p3 to every neighbor):
   6 withdrawals, no updates. *)
let initial_lengths = [ (1, 6); (2, 10); (3, 6); (4, 2) ]

let test_line_size_oracle () =
  (* Literal sums against the wire-size model. *)
  for n = 1 to 4 do
    check Alcotest.int
      (Printf.sprintf "RFC 4271 update, path %d" n)
      (plain_update_bytes n)
      (Wire.bgp_update_bytes ~as_path_len:n ~prefixes:1);
    check Alcotest.int
      (Printf.sprintf "RFC 8205 update, path %d" n)
      (bgpsec_update_bytes n)
      (Wire.bgpsec_update_bytes ~as_path_len:n)
  done;
  check Alcotest.int "RFC 4271 withdrawal" withdraw_bytes
    (Wire.bgp_withdraw_bytes ~prefixes:1);
  (* The simulator's counters against the enumerated messages. *)
  let t = converged_sim (line_graph ()) in
  let st = Bgp_sim.stats t in
  check Alcotest.int "updates" 24 st.Bgp_sim.updates_sent;
  check Alcotest.int "withdrawals" 0 st.Bgp_sim.withdrawals_sent;
  let bytes =
    List.fold_left
      (fun acc (n, k) -> acc + (k * plain_update_bytes n))
      0 initial_lengths
  in
  Alcotest.(check (float 0.0))
    "bytes" (float_of_int bytes) st.Bgp_sim.bytes_sent;
  Bgp_sim.reset_stats t;
  Bgp_sim.withdraw_origin t ~origin:3;
  ignore (Bgp_sim.run_to_quiescence t);
  let st = Bgp_sim.stats t in
  check Alcotest.int "withdraw: updates" 0 st.Bgp_sim.updates_sent;
  check Alcotest.int "withdraw: withdrawals" 6 st.Bgp_sim.withdrawals_sent;
  Alcotest.(check (float 0.0))
    "withdraw: bytes"
    (float_of_int (6 * withdraw_bytes))
    st.Bgp_sim.bytes_sent

(* Golden event order: the convergence scenario's simulator on the
   tiny core, where many events share an instant. Any change to the
   order in which same-instant events fire moves these numbers. The
   values were recorded from the discrete-event engine this simulator
   used to run on. *)
let test_golden_event_order () =
  let g = (Exp_common.prepare Exp_common.Tiny).Exp_common.core in
  let t = Bgp_sim.create g in
  Bgp_sim.announce_all t;
  let t1 = Bgp_sim.run_to_quiescence t in
  let st1 = Bgp_sim.stats t in
  Bgp_sim.reset_stats t;
  (* The first link that is the only one between its ends, so its
     failure tears the session down. *)
  let l =
    let rec find l =
      let lk = Graph.link g l in
      if List.length (Graph.links_between g lk.Graph.a lk.Graph.b) = 1 then l
      else find (l + 1)
    in
    find 0
  in
  Bgp_sim.fail_link t l;
  let t2 = Bgp_sim.run_to_quiescence t in
  let st2 = Bgp_sim.stats t in
  let summary (st : Bgp_sim.stats) =
    let b = Buffer.create 4096 in
    Array.iter
      (fun x -> Printf.bprintf b "%d," x)
      st.Bgp_sim.updates_received_per_as;
    Array.iter
      (fun x -> Printf.bprintf b "%h," x)
      st.Bgp_sim.bytes_received_per_as;
    Printf.sprintf "%h %d %d %h %s" st.Bgp_sim.last_route_change
      st.Bgp_sim.updates_sent st.Bgp_sim.withdrawals_sent st.Bgp_sim.bytes_sent
      (Sha256.hex (Buffer.contents b))
  in
  check Alcotest.int "failed link" 863 l;
  check Alcotest.string "initial quiescence" "0x1.6ba3d70a3d72ap+5"
    (Printf.sprintf "%h" t1);
  check Alcotest.string "initial stats"
    "0x1.e8e147ae1479p+4 14400 0 0x1.7fe88p+19 \
     e4f164c571b8595255c82b5ab61c25b3c03fbe7a667b8b372ae5b0bad1c1fc87"
    (summary st1);
  check Alcotest.string "failure quiescence" "0x1.e047ae147ae16p+5"
    (Printf.sprintf "%h" t2);
  check Alcotest.string "failure stats"
    "0x1.6bc28f5c28f7cp+5 54 0 0x1.888p+11 \
     a33106d9c92f31daa7325a52dfd81a897ee1b4ea0982d233abe2054e032e5831"
    (summary st2)

(* The event queue's instrumentation: one [des_events_total] tick and
   one [des] trace event per fired event, and a [des_queue_depth]
   sample every 64 of the simulator's own events, also when a second
   simulator records into the same context. *)
let test_queue_instrumentation () =
  let seen = ref [] in
  let trace =
    Trace.create ~sink:(Trace.Custom (fun e -> seen := e :: !seen)) Trace.Debug
  in
  let obs = Obs.create ~trace () in
  let fired_by_run () =
    seen := [];
    let t = Bgp_sim.create ~obs (policy_graph ()) in
    Bgp_sim.announce_all t;
    let tq = Bgp_sim.run_to_quiescence t in
    let fired =
      List.rev !seen
      |> List.filter (fun (e : Trace.event) ->
             e.Trace.category = "des" && e.Trace.message = "event fired")
    in
    (tq, fired)
  in
  let c = Registry.counter (Obs.registry obs) "des_events_total" in
  let h = Registry.histogram (Obs.registry obs) "des_queue_depth" in
  let tq, fired = fired_by_run () in
  let n = List.length fired in
  Alcotest.(check bool) "events fired" true (n > 64);
  Alcotest.(check (float 0.0)) "one tick per event" (float_of_int n) !c;
  check Alcotest.int "depth sampled every 64 events" (n / 64)
    (Histogram.count h);
  let times = List.map (fun (e : Trace.event) -> e.Trace.time) fired in
  Alcotest.(check bool) "fired in time order" true
    (times = List.sort Float.compare times);
  Alcotest.(check (float 0.0)) "last event at quiescence" tq
    (List.nth times (n - 1));
  (* A second simulator on the same context: the shared counter now
     starts at [n], and the two remainders mod 64 add up past 64, so
     sampling on the shared count would take one sample too many. *)
  let _, fired' = fired_by_run () in
  let n' = List.length fired' in
  Alcotest.(check bool)
    "remainders overflow" true
    ((n mod 64) + (n' mod 64) >= 64);
  Alcotest.(check (float 0.0))
    "shared counter sums both"
    (float_of_int (n + n'))
    !c;
  check Alcotest.int "second simulator samples its own n/64" (n' / 64)
    (Histogram.count h - (n / 64))

let suite =
  [
    ("converges to closed form", `Quick, test_converges_to_closed_form);
    ("loop free", `Quick, test_loop_free);
    ("withdraw cascades", `Quick, test_withdraw_cascades);
    ("link failure reroute", `Quick, test_link_failure_reroute);
    ("parallel link sessions", `Quick, test_parallel_link_sessions);
    ("adj-rib-in multipath", `Quick, test_adj_rib_in_multipath);
    ("mrai paces updates", `Quick, test_mrai_paces_updates);
    ("quiescence time positive", `Quick, test_quiescence_time_positive);
    ("generated topology reachability", `Slow, test_generated_topology_full_reachability);
    ("line size oracle", `Quick, test_line_size_oracle);
    ("golden event order", `Quick, test_golden_event_order);
    ("queue instrumentation", `Quick, test_queue_instrumentation);
  ]
