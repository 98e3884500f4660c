(* Tests for AS-local beaconing policies (§2.2). *)

let check = Alcotest.check

(* Line of core ASes across two ISDs:
   0 (ISD 1) - 1 (ISD 1) - 2 (ISD 2) - 3 (ISD 1), plus a chord 0-3. *)
let graph () =
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let a1 = Graph.add_as b ~core:true (Id.ia 1 2) in
  let a2 = Graph.add_as b ~core:true (Id.ia 2 1) in
  let a3 = Graph.add_as b ~core:true (Id.ia 1 3) in
  Graph.add_link b ~rel:Graph.Core a0 a1;
  Graph.add_link b ~rel:Graph.Core a1 a2;
  Graph.add_link b ~rel:Graph.Core a2 a3;
  Graph.add_link b ~rel:Graph.Core a0 a3;
  Graph.freeze b

let mk_pcb g hops_spec origin =
  let p = ref (Pcb.origin_pcb ~origin ~now:0.0 ~lifetime:3600.0) in
  List.iter
    (fun (asn, link) ->
      ignore g;
      p := Pcb.extend !p ~asn ~ingress:0 ~egress:1 ~link ~peers:[||])
    hops_spec;
  !p

let test_rules () =
  let g = graph () in
  let p = mk_pcb g [ (0, 0); (1, 1) ] 0 in
  (* path: origin 0, hops 0 (link 0), 1 (link 1) *)
  Alcotest.(check bool) "empty policy allows" true (Beacon_filter.allows g [] p);
  Alcotest.(check bool) "deny-as on path" false
    (Beacon_filter.allows g [ Beacon_filter.Deny_as 1 ] p);
  Alcotest.(check bool) "deny-as off path" true
    (Beacon_filter.allows g [ Beacon_filter.Deny_as 2 ] p);
  Alcotest.(check bool) "deny-origin" false
    (Beacon_filter.allows g [ Beacon_filter.Deny_origin 0 ] p);
  Alcotest.(check bool) "deny-link on path" false
    (Beacon_filter.allows g [ Beacon_filter.Deny_link 1 ] p);
  Alcotest.(check bool) "max hops passes" true
    (Beacon_filter.allows g [ Beacon_filter.Max_hops 2 ] p);
  Alcotest.(check bool) "max hops rejects" false
    (Beacon_filter.allows g [ Beacon_filter.Max_hops 1 ] p);
  Alcotest.(check bool) "deny ISD 1 (origin's ISD)" false
    (Beacon_filter.allows g [ Beacon_filter.Deny_isd 1 ] p);
  Alcotest.(check bool) "deny ISD 2 (not touched)" true
    (Beacon_filter.allows g [ Beacon_filter.Deny_isd 2 ] p);
  (* Conjunction: any deny rule rejects. *)
  Alcotest.(check bool) "rule conjunction" false
    (Beacon_filter.allows g [ Beacon_filter.Max_hops 5; Beacon_filter.Deny_as 0 ] p)

let test_deny_isd_in_beaconing () =
  (* AS 3 refuses to propagate anything touching ISD 2 (geofencing):
     AS 0 must then only learn 3-origin paths via the direct chord or
     via 1-2... no: paths THROUGH 2 are still learnt from others; but
     3 itself must never forward a path containing AS 2. We verify that
     every path AS 0 stores whose last hop is 3 avoids ISD 2. *)
  let g = graph () in
  let cfg =
    {
      Beaconing.default_config with
      Beaconing.duration = 600.0 *. 8.0;
      Beaconing.filters = [ (3, [ Beacon_filter.Deny_isd 2 ]) ];
    }
  in
  let out = Beaconing.run g cfg in
  let now = cfg.Beaconing.duration -. 1.0 in
  List.iter
    (fun o ->
      List.iter
        (fun (p : Pcb.t) ->
          let nh = Pcb.num_hops p in
          if nh > 0 && p.Pcb.hops.(nh - 1).Pcb.asn = 3 then
            Alcotest.(check bool) "AS 3 never forwarded an ISD-2 path" true
              (not (Pcb.contains_as p 2)))
        (Beacon_store.paths out.Beaconing.stores.(0) ~now ~origin:o))
    (Beacon_store.origins out.Beaconing.stores.(0))

let test_deny_origin_blackholes () =
  (* AS 1 refuses to propagate origin 2: AS 0 can then only learn
     2-origin paths whose last hop is 3 (via the chord). *)
  let g = graph () in
  let cfg =
    {
      Beaconing.default_config with
      Beaconing.duration = 600.0 *. 8.0;
      Beaconing.filters = [ (1, [ Beacon_filter.Deny_origin 2 ]) ];
    }
  in
  let out = Beaconing.run g cfg in
  let now = cfg.Beaconing.duration -. 1.0 in
  let paths = Beacon_store.paths out.Beaconing.stores.(0) ~now ~origin:2 in
  Alcotest.(check bool) "still reachable via 3" true (paths <> []);
  List.iter
    (fun (p : Pcb.t) ->
      let nh = Pcb.num_hops p in
      check Alcotest.int "only via the chord through 3" 3 p.Pcb.hops.(nh - 1).Pcb.asn)
    paths

let test_unknown_as_rejected () =
  let g = graph () in
  let cfg =
    { Beaconing.default_config with Beaconing.filters = [ (99, [ Beacon_filter.Max_hops 1 ]) ] }
  in
  Alcotest.check_raises "unknown AS"
    (Invalid_argument "Beaconing.run: filter for unknown AS") (fun () ->
      ignore (Beaconing.run g cfg))

let suite =
  [
    ("filter rules", `Quick, test_rules);
    ("deny-isd during beaconing", `Quick, test_deny_isd_in_beaconing);
    ("deny-origin blackholes locally", `Quick, test_deny_origin_blackholes);
    ("unknown AS rejected", `Quick, test_unknown_as_rejected);
  ]
