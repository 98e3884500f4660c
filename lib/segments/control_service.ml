type t = {
  graph : Graph.t;
  keys : Fwd_keys.t;
  now : float;
  core_ps : (int, Path_server.t) Hashtbl.t;
  up_store : (int, Segment.t list) Hashtbl.t;
  revoked : (int, unit) Hashtbl.t;
}

let keys t = t.keys
let now t = t.now

let same_graph a b =
  Graph.n a = Graph.n b && Graph.num_links a = Graph.num_links b

let core_ases_of_isd g isd =
  List.filter (fun c -> (Graph.as_info g c).Graph.ia.Id.isd = isd) (Graph.core_ases g)

(* [build] creates one path server per core AS; segments originate at
   core ASes, so every lookup finds one. *)
let ps t c = Hashtbl.find t.core_ps c

let ingest_intra t (intra : Beaconing.outcome) =
  let g = t.graph in
  for v = 0 to Graph.n g - 1 do
    if not (Graph.is_core g v) then begin
      let pcbs = Beacon_store.all_paths intra.Beaconing.stores.(v) ~now:t.now in
      let ups =
        List.filter_map
          (fun pcb ->
            if Array.length pcb.Pcb.hops = 0 then None
            else begin
              let up =
                Segment.terminate g t.keys ~kind:Segment.Up ~holder:v pcb
              in
              (* Register the same segment as a down-path segment at the
                 core path server of its origin AS (§2.2: leaf ASes
                 register). *)
              ignore
                (Path_server.register_down (ps t up.Segment.origin) ~now:t.now
                   { up with Segment.kind = Segment.Down });
              Some up
            end)
          pcbs
      in
      Hashtbl.replace t.up_store v ups
    end
  done

let ingest_core t (core : Beaconing.outcome) =
  let g = t.graph in
  List.iter
    (fun c ->
      let pcbs = Beacon_store.all_paths core.Beaconing.stores.(c) ~now:t.now in
      let segs =
        List.filter_map
          (fun pcb ->
            if Array.length pcb.Pcb.hops = 0 then None
            else Some (Segment.terminate g t.keys ~kind:Segment.Core_seg ~holder:c pcb))
          pcbs
      in
      List.iter
        (fun seg -> ignore (Path_server.register_core (ps t c) ~now:t.now seg))
        segs)
    (Graph.core_ases g)

let make graph now =
  let core_ps = Hashtbl.create 16 in
  List.iter
    (fun c -> Hashtbl.replace core_ps c (Path_server.create ()))
    (Graph.core_ases graph);
  {
    graph;
    keys = Fwd_keys.create ();
    now;
    core_ps;
    up_store = Hashtbl.create 64;
    revoked = Hashtbl.create 8;
  }

let build ~(core : Beaconing.outcome) ~(intra : Beaconing.outcome) () =
  if not (same_graph core.Beaconing.graph intra.Beaconing.graph) then
    invalid_arg "Control_service.build: outcomes are over different graphs";
  let now =
    max core.Beaconing.config.Beaconing.duration
      intra.Beaconing.config.Beaconing.duration
    -. 1.0
  in
  let t = make core.Beaconing.graph now in
  ingest_intra t intra;
  ingest_core t core;
  t

let up_segments t ~src =
  Option.value ~default:[] (Hashtbl.find_opt t.up_store src)

let not_revoked t (p : Fwd_path.t) =
  not (Array.exists (fun l -> Hashtbl.mem t.revoked l) p.Fwd_path.links)

type segments = {
  up : Segment.t list;
  core : Segment.t list;
  down : Segment.t list;
}

let lookup t ~src ~dst =
  let g = t.graph in
  let src_core = Graph.is_core g src and dst_core = Graph.is_core g dst in
  let ups = if src_core then [] else up_segments t ~src in
  let src_cores =
    if src_core then [ src ]
    else
      List.sort_uniq compare (List.map (fun (s : Segment.t) -> s.Segment.origin) ups)
  in
  let dst_isd = (Graph.as_info g dst).Graph.ia.Id.isd in
  let dst_cores = if dst_core then [ dst ] else core_ases_of_isd g dst_isd in
  let downs =
    if dst_core then []
    else
      List.concat_map
        (fun c -> Path_server.lookup_down (ps t c) ~now:t.now ~leaf:dst)
        dst_cores
  in
  let cores =
    List.concat_map
      (fun c1 ->
        List.concat_map
          (fun c2 ->
            if c1 = c2 then []
            else Path_server.lookup_core (ps t c1) ~now:t.now ~remote:c2)
          dst_cores)
      src_cores
  in
  { up = ups; core = cores; down = downs }

let resolve t ~src ~dst =
  if src = dst then []
  else begin
    let s = lookup t ~src ~dst in
    Seg_combine.combine t.graph ~up:s.up ~core:s.core ~down:s.down ~src ~dst
    |> List.filter (not_revoked t)
  end

let revoke_link t ~link =
  Hashtbl.replace t.revoked link ();
  Hashtbl.fold
    (fun _ p acc -> acc + Path_server.revoke_link p ~link)
    t.core_ps 0

let stats t =
  Hashtbl.fold
    (fun _ p (acc : Path_server.stats) ->
      let s = Path_server.stats p in
      {
        Path_server.registrations = acc.registrations + s.registrations;
        registration_bytes = acc.registration_bytes + s.registration_bytes;
        lookups_down = acc.lookups_down + s.lookups_down;
        lookups_core = acc.lookups_core + s.lookups_core;
        reply_segments_down = acc.reply_segments_down + s.reply_segments_down;
        reply_segments_core = acc.reply_segments_core + s.reply_segments_core;
        revocations = acc.revocations + s.revocations;
        revoked_segments = acc.revoked_segments + s.revoked_segments;
      })
    t.core_ps
    (* A fresh server's stats are all zero. *)
    (Path_server.stats (Path_server.create ()))
