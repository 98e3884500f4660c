type stats = {
  registrations : int;
  registration_bytes : int;
  lookups_down : int;
  lookups_core : int;
  reply_segments_down : int;
  reply_segments_core : int;
  revocations : int;
  revoked_segments : int;
}

type t = {
  per_leaf_limit : int;
  down : (int, (string, Segment.t) Hashtbl.t) Hashtbl.t;
  core : (int, (string, Segment.t) Hashtbl.t) Hashtbl.t;
  mutable registrations : int;
  mutable registration_bytes : int;
  mutable lookups_down : int;
  mutable lookups_core : int;
  mutable reply_segments_down : int;
  mutable reply_segments_core : int;
  mutable revocations : int;
  mutable revoked_segments : int;
  (* Observability cells, hoisted at creation. *)
  obs_on : bool;
  tr : Trace.t;
  c_down_hits : float ref;
  c_down_misses : float ref;
  c_core_hits : float ref;
  c_core_misses : float ref;
  c_registrations : float ref;
  c_revoked : float ref;
}

let create ?(obs = Obs.disabled) ?(per_leaf_limit = 60) () =
  if per_leaf_limit < 1 then invalid_arg "Path_server.create: per_leaf_limit < 1";
  let obs_on = Obs.on obs in
  let counter kind name =
    if obs_on then
      Registry.counter (Obs.registry obs)
        ~labels:(match kind with Some k -> [ ("kind", k) ] | None -> [])
        name
    else ref 0.0
  in
  {
    per_leaf_limit;
    down = Hashtbl.create 64;
    core = Hashtbl.create 64;
    registrations = 0;
    registration_bytes = 0;
    lookups_down = 0;
    lookups_core = 0;
    reply_segments_down = 0;
    reply_segments_core = 0;
    revocations = 0;
    revoked_segments = 0;
    obs_on;
    tr = Obs.trace obs;
    c_down_hits = counter (Some "down") "path_server_lookup_hits_total";
    c_down_misses = counter (Some "down") "path_server_lookup_misses_total";
    c_core_hits = counter (Some "core") "path_server_lookup_hits_total";
    c_core_misses = counter (Some "core") "path_server_lookup_misses_total";
    c_registrations = counter None "path_server_registrations_total";
    c_revoked = counter None "path_server_revoked_segments_total";
  }

let seg_key (s : Segment.t) =
  Printf.sprintf "%d|%s" s.Segment.origin (Pcb.path_key s.Segment.links)

let bucket table idx =
  match Hashtbl.find_opt table idx with
  | Some b -> b
  | None ->
      let b = Hashtbl.create 8 in
      Hashtbl.replace table idx b;
      b

let register t table ~idx ~now (s : Segment.t) =
  if not (Segment.is_valid s ~now) then false
  else begin
    let b = bucket table idx in
    let key = seg_key s in
    let fresh = not (Hashtbl.mem b key) in
    if fresh && Hashtbl.length b >= t.per_leaf_limit then false
    else begin
      Hashtbl.replace b key s;
      t.registrations <- t.registrations + 1;
      t.registration_bytes <- t.registration_bytes + Segment.registration_bytes s;
      if t.obs_on then t.c_registrations := !(t.c_registrations) +. 1.0;
      true
    end
  end

let register_down t ~now s = register t t.down ~idx:s.Segment.leaf ~now s

let register_core t ~now s = register t t.core ~idx:s.Segment.origin ~now s

let register_best_core t g keys ~now ~holder ~k paths =
  let rec go k = function
    | (p : Pcb.t) :: rest when k > 0 && Array.length p.Pcb.hops > 0 ->
        let seg = Segment.terminate g keys ~kind:Segment.Core_seg ~holder p in
        ignore (register_core t ~now seg);
        go (k - 1) rest
    | _ -> ()
  in
  go k paths

let lookup table ~now idx =
  match Hashtbl.find_opt table idx with
  | None -> []
  | Some b ->
      (* Sorted by segment key so replies are a pure function of the
         registered set, not of hash-table layout. *)
      Hashtbl.fold
        (fun key s acc -> if Segment.is_valid s ~now then (key, s) :: acc else acc)
        b []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd

let observe_lookup t ~now ~kind ~idx ~hit ~c_hits ~c_misses ~n_segs =
  let c = if hit then c_hits else c_misses in
  c := !c +. 1.0;
  if Trace.enabled t.tr Trace.Debug then
    Trace.emit t.tr Trace.Debug ~time:now ~category:"path_server"
      ~fields:
        [
          ("kind", kind);
          ("dst", string_of_int idx);
          ("segments", string_of_int n_segs);
        ]
      (if hit then "lookup hit" else "lookup miss")

let lookup_down t ~now ~leaf =
  let segs = lookup t.down ~now leaf in
  t.lookups_down <- t.lookups_down + 1;
  let n = List.length segs in
  t.reply_segments_down <- t.reply_segments_down + n;
  if t.obs_on then
    observe_lookup t ~now ~kind:"down" ~idx:leaf ~hit:(n > 0)
      ~c_hits:t.c_down_hits ~c_misses:t.c_down_misses ~n_segs:n;
  segs

let lookup_core t ~now ~remote =
  let segs = lookup t.core ~now remote in
  t.lookups_core <- t.lookups_core + 1;
  let n = List.length segs in
  t.reply_segments_core <- t.reply_segments_core + n;
  if t.obs_on then
    observe_lookup t ~now ~kind:"core" ~idx:remote ~hit:(n > 0)
      ~c_hits:t.c_core_hits ~c_misses:t.c_core_misses ~n_segs:n;
  segs

let revoke_link t ~link =
  t.revocations <- t.revocations + 1;
  let purge table =
    let removed = ref 0 in
    Hashtbl.iter
      (fun _ b ->
        let dead =
          Hashtbl.fold
            (fun key s acc -> if Segment.contains_link s link then key :: acc else acc)
            b []
        in
        List.iter
          (fun key ->
            Hashtbl.remove b key;
            incr removed)
          dead)
      table;
    !removed
  in
  let n = purge t.down + purge t.core in
  t.revoked_segments <- t.revoked_segments + n;
  if t.obs_on then begin
    t.c_revoked := !(t.c_revoked) +. float_of_int n;
    if Trace.enabled t.tr Trace.Warn then
      Trace.emit t.tr Trace.Warn ~time:0.0 ~category:"path_server"
        ~fields:
          [ ("link", string_of_int link); ("revoked", string_of_int n) ]
        "link revocation purged segments"
  end;
  n

let stats t =
  {
    registrations = t.registrations;
    registration_bytes = t.registration_bytes;
    lookups_down = t.lookups_down;
    lookups_core = t.lookups_core;
    reply_segments_down = t.reply_segments_down;
    reply_segments_core = t.reply_segments_core;
    revocations = t.revocations;
    revoked_segments = t.revoked_segments;
  }

let total_segments t =
  let count table = Hashtbl.fold (fun _ b acc -> acc + Hashtbl.length b) table 0 in
  count t.down + count t.core

(* Non-empty buckets in index order, each in segment-key order: the
   canonical order of [write] and [iter]. *)
let sorted_buckets table =
  Hashtbl.fold
    (fun idx b acc ->
      if Hashtbl.length b = 0 then acc
      else
        let segs =
          Hashtbl.fold (fun key s acc -> (key, s) :: acc) b []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.map snd
        in
        (idx, segs) :: acc)
    table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let iter t f =
  let each ~core table =
    List.iter
      (fun (idx, segs) -> List.iter (f ~core ~idx) segs)
      (sorted_buckets table)
  in
  each ~core:false t.down;
  each ~core:true t.core

let write w t =
  let w_table table =
    Snapshot.w_list w
      (fun w (idx, segs) ->
        Snapshot.w_int w idx;
        Snapshot.w_list w Segment.write segs)
      (sorted_buckets table)
  in
  Snapshot.w_int w t.per_leaf_limit;
  w_table t.down;
  w_table t.core;
  List.iter (Snapshot.w_int w)
    [
      t.registrations;
      t.registration_bytes;
      t.lookups_down;
      t.lookups_core;
      t.reply_segments_down;
      t.reply_segments_core;
      t.revocations;
      t.revoked_segments;
    ]

let read r =
  let limit = Snapshot.r_int r in
  if limit < 1 then Snapshot.corrupt "bad path server per-leaf limit %d" limit;
  let t = create ~per_leaf_limit:limit () in
  (* Fill the buckets directly: going through [register] would bump
     registration stats a second time. A bucket is
     never empty, holds at most [limit] segments and is keyed by
     [idx_of] of each of them (leaf for down, origin for core). *)
  let r_table table idx_of =
    Snapshot.r_sorted r "path server buckets" (fun r ->
        let idx = Snapshot.r_int r in
        let b = bucket table idx in
        let bad () =
          Snapshot.corrupt "path server bucket %d: empty, surplus or foreign"
            idx
        in
        Snapshot.r_sorted r "segments" (fun r ->
            let s = Segment.read r in
            if idx_of s <> idx || Hashtbl.length b >= limit then bad ();
            let key = seg_key s in
            Hashtbl.replace b key s;
            key);
        if Hashtbl.length b = 0 then bad ();
        idx)
  in
  r_table t.down (fun s -> s.Segment.leaf);
  r_table t.core (fun s -> s.Segment.origin);
  t.registrations <- Snapshot.r_int r;
  t.registration_bytes <- Snapshot.r_int r;
  t.lookups_down <- Snapshot.r_int r;
  t.lookups_core <- Snapshot.r_int r;
  t.reply_segments_down <- Snapshot.r_int r;
  t.reply_segments_core <- Snapshot.r_int r;
  t.revocations <- Snapshot.r_int r;
  t.revoked_segments <- Snapshot.r_int r;
  t
