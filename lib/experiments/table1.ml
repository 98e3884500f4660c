type scope = As_scope | Isd_scope | Global_scope

type frequency = Hours | Minutes | Seconds

type component = {
  name : string;
  scope : scope;
  frequency : frequency;
  rationale : string;
}

let components =
  [
    {
      name = "Core Beaconing";
      scope = Global_scope;
      frequency = Minutes;
      rationale = "selective flooding among all core ASes, every beaconing interval";
    };
    {
      name = "Intra-ISD Beaconing";
      scope = Isd_scope;
      frequency = Minutes;
      rationale = "uni-directional dissemination along provider-customer links";
    };
    {
      name = "Down-Path Segment Lookup";
      scope = Global_scope;
      frequency = Hours;
      rationale = "unicast fetch, amortised by caching and long segment lifetimes";
    };
    {
      name = "Core-Path Segment Lookup";
      scope = Isd_scope;
      frequency = Hours;
      rationale = "fetched from a core AS inside the own ISD";
    };
    {
      name = "Endpoint Path Lookup";
      scope = As_scope;
      frequency = Seconds;
      rationale = "local query to the AS's own path server";
    };
    {
      name = "Path (De-)Registration";
      scope = Isd_scope;
      frequency = Minutes;
      rationale = "leaf ASes register segments at the ISD core every tens of minutes";
    };
    {
      name = "Path Revocation";
      scope = Isd_scope;
      frequency = Hours;
      rationale = "only on link failures; SCMP informs affected endpoints";
    };
  ]

let check b = if b then "x" else ""

let render () =
  let rows =
    List.map
      (fun c ->
        [
          c.name;
          check (c.scope = As_scope);
          check (c.scope = Isd_scope);
          check (c.scope = Global_scope);
          check (c.frequency = Hours);
          check (c.frequency = Minutes);
          check (c.frequency = Seconds);
        ])
      components
  in
  Table.render
    ~header:[ "SCION Control Plane Component"; "AS"; "ISD"; "Global"; "Hours"; "Minutes"; "Seconds" ]
    ~rows

type measured = { component : string; messages : float; bytes : float }

let measure ?obs ?jobs scale =
  let g = Exp_common.coreify (Exp_common.prepare scale).Exp_common.isd in
  let core_out, intra_out, cs = Exp_common.control_plane ?obs ?jobs g in
  let rng = Rng.create 0xAB1EL in
  (* Zipf-popular destinations (§4.1): endpoints in random ASes resolve
     paths towards popular leaf ASes. *)
  let zipf = Zipf.create ~n:(Graph.n g) ~s:1.1 in
  let endpoint_lookups = ref 0 in
  let resolved_paths = ref 0 in
  let lookups = ref [] in
  for _ = 1 to 200 do
    let src = Rng.int rng (Graph.n g) in
    let dst = Zipf.sample zipf rng in
    if src <> dst then begin
      incr endpoint_lookups;
      let paths = Control_service.resolve cs ~src ~dst in
      resolved_paths := !resolved_paths + List.length paths;
      lookups := paths :: !lookups
    end
  done;
  (* One link fails after the lookups: the one the most resolved paths
     cross (the lowest id among equals), so the revocation reaches
     endpoints. The path server revokes its segments, and SCMP notifies
     each endpoint whose looked-up paths cross it. *)
  let crossing = Array.make (Graph.num_links g) 0 in
  List.iter
    (List.iter (fun p ->
         for l = 0 to Graph.num_links g - 1 do
           if Fwd_path.contains_link p l then crossing.(l) <- crossing.(l) + 1
         done))
    !lookups;
  let failed_id = ref 0 in
  Array.iteri (fun l c -> if c > crossing.(!failed_id) then failed_id := l) crossing;
  let failed = Graph.link g !failed_id in
  let notified =
    List.length
      (List.filter (List.exists (fun p -> Fwd_path.contains_link p !failed_id))
         !lookups)
  in
  ignore (Control_service.revoke_link cs ~link:!failed_id);
  let revocation_msgs, revocation_bytes =
    Fault_engine.revocation failed ~now:(Control_service.now cs) ~notified
  in
  let ps = Control_service.stats cs in
  let seg_bytes = float_of_int (Wire.pcb_bytes ~hops:4) in
  let fi = float_of_int in
  [
    {
      component = "Core Beaconing";
      messages = fi core_out.Beaconing.stats.Beaconing.total_pcbs;
      bytes = core_out.Beaconing.stats.Beaconing.total_bytes;
    };
    {
      component = "Intra-ISD Beaconing";
      messages = fi intra_out.Beaconing.stats.Beaconing.total_pcbs;
      bytes = intra_out.Beaconing.stats.Beaconing.total_bytes;
    };
    {
      component = "Down-Path Segment Lookup";
      messages = fi ps.Path_server.lookups_down;
      bytes = fi ps.Path_server.reply_segments_down *. seg_bytes;
    };
    {
      component = "Core-Path Segment Lookup";
      messages = fi ps.Path_server.lookups_core;
      bytes = fi ps.Path_server.reply_segments_core *. seg_bytes;
    };
    {
      component = "Endpoint Path Lookup";
      messages = fi !endpoint_lookups;
      bytes = fi !resolved_paths *. 64.0;
    };
    {
      component = "Path (De-)Registration";
      messages = fi ps.Path_server.registrations;
      bytes = fi ps.Path_server.registration_bytes;
    };
    {
      component = "Path Revocation";
      messages = fi revocation_msgs;
      bytes = fi revocation_bytes;
    };
  ]

type config = { scale : Exp_common.scale }

let config scale = { scale }

type result = { measured : measured list }

let name = "table1"

let doc = "Table 1: control-plane overhead taxonomy"

let run ?obs ?jobs { scale } = { measured = measure ?obs ?jobs scale }

let to_json (r : result) =
  let taxonomy =
    List.map
      (fun c ->
        Obs_json.Obj
          [
            ("component", Obs_json.String c.name);
            ( "scope",
              Obs_json.String
                (match c.scope with
                | As_scope -> "as"
                | Isd_scope -> "isd"
                | Global_scope -> "global") );
            ( "frequency",
              Obs_json.String
                (match c.frequency with
                | Hours -> "hours"
                | Minutes -> "minutes"
                | Seconds -> "seconds") );
            ("rationale", Obs_json.String c.rationale);
          ])
      components
  in
  let measured =
    List.map
      (fun m ->
        Obs_json.Obj
          [
            ("component", Obs_json.String m.component);
            ("messages", Obs_json.Float m.messages);
            ("bytes", Obs_json.Float m.bytes);
          ])
      r.measured
  in
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("taxonomy", Obs_json.List taxonomy);
      ("measured", Obs_json.List measured);
    ]

let print (r : result) =
  print_string (render ());
  print_newline ();
  print_endline
    "Measured per-component traffic (short end-to-end simulation):";
  Table.print
    ~header:[ "Component"; "Messages"; "Bytes" ]
    ~rows:
      (List.map
         (fun m ->
           [
             m.component;
             Printf.sprintf "%.0f" m.messages;
             Printf.sprintf "%.3g" m.bytes;
           ])
         r.measured)
