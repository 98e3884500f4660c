type per_origin = {
  by_key : (string, Pcb.t) Hashtbl.t;
  mutable last_modified : float;
  mutable worst : Pcb.t option;
      (* the worst entry as of [worst_now]; [None] after any mutation *)
  mutable worst_now : float;
}

type t = { limit : int; origins : (int, per_origin) Hashtbl.t }

type insert_outcome = Added | Refreshed | Evicted_other | Rejected

let create ~limit =
  if limit < 1 then invalid_arg "Beacon_store.create: limit must be >= 1";
  { limit; origins = Hashtbl.create 64 }


let slot t origin =
  match Hashtbl.find_opt t.origins origin with
  | Some s -> s
  | None ->
      let s =
        {
          by_key = Hashtbl.create 8;
          last_modified = neg_infinity;
          worst = None;
          worst_now = neg_infinity;
        }
      in
      Hashtbl.replace t.origins origin s;
      s

let invalidate s = s.worst <- None

(* The one ranking, lexicographic badness: expired, then longer, then
   older. The path key breaks the remaining ties so the ordering is
   total — which entry wins never depends on hash-table iteration
   order. The candidate is [a]'s validity and timestamp with [hops] AS
   entries and key [key], so an unbuilt extension ranks like the PCB
   it would become. Positive when the candidate is worse than [b]. *)
let compare_badness ~now (a : Pcb.t) ~hops ~key (b : Pcb.t) =
  let ea = not (Pcb.is_valid a ~now) and eb = not (Pcb.is_valid b ~now) in
  if ea <> eb then if ea then 1 else -1
  else
    let hb = Pcb.num_hops b in
    if hops <> hb then Int.compare hops hb
    else if a.Pcb.timestamp <> b.Pcb.timestamp then
      Float.compare b.Pcb.timestamp a.Pcb.timestamp
    else String.compare key b.Pcb.key

(* The worst entry of a non-empty slot at [now]: one scan, then cached
   until the slot changes or [now] moves. *)
let worst_entry s ~now =
  match s.worst with
  | Some w when s.worst_now = now -> w
  | _ ->
      let w =
        Hashtbl.fold
          (fun _ (p : Pcb.t) acc ->
            match acc with
            | Some wp
              when compare_badness ~now p ~hops:(Pcb.num_hops p) ~key:p.Pcb.key
                     wp
                   <= 0 ->
                acc
            | _ -> Some p)
          s.by_key None
        |> Option.get
      in
      s.worst <- Some w;
      s.worst_now <- now;
      w

let store s ~now (pcb : Pcb.t) =
  Hashtbl.replace s.by_key pcb.Pcb.key pcb;
  s.last_modified <- now;
  invalidate s

(* The store's one decision, on a candidate with [p]'s origin,
   timestamp and lifetime, [hops] AS entries and path key [key]. The
   PCB to keep is [build x], made only when the outcome is not
   [Rejected]. *)
let decide t ~now (p : Pcb.t) ~hops ~key ~build x =
  if not (Pcb.is_valid p ~now) then Rejected
  else begin
    let s = slot t p.Pcb.origin in
    match Hashtbl.find_opt s.by_key key with
    | Some existing ->
        if p.Pcb.timestamp > existing.Pcb.timestamp then begin
          store s ~now (build x);
          Refreshed
        end
        else Rejected
    | None ->
        if Hashtbl.length s.by_key < t.limit then begin
          store s ~now (build x);
          Added
        end
        else begin
          (* Full: replace the worst entry if the newcomer is strictly
             better. *)
          let w = worst_entry s ~now in
          if compare_badness ~now p ~hops ~key w < 0 then begin
            Hashtbl.remove s.by_key w.Pcb.key;
            store s ~now (build x);
            Evicted_other
          end
          else Rejected
        end
  end

let insert t ~now (pcb : Pcb.t) =
  decide t ~now pcb ~hops:(Pcb.num_hops pcb) ~key:pcb.Pcb.key ~build:Fun.id pcb

let offer t ~now parent ~link ~build x =
  decide t ~now parent
    ~hops:(Pcb.num_hops parent + 1)
    ~key:(Pcb.extension_key parent ~link)
    ~build x

let paths t ~now ~origin =
  match Hashtbl.find_opt t.origins origin with
  | None -> []
  | Some s ->
      Hashtbl.fold
        (fun _ p acc -> if Pcb.is_valid p ~now then p :: acc else acc)
        s.by_key []
      |> List.sort (fun (a : Pcb.t) (b : Pcb.t) ->
             match compare (Pcb.num_hops a) (Pcb.num_hops b) with
             | 0 -> (
                 match compare b.Pcb.timestamp a.Pcb.timestamp with
                 | 0 -> compare a.Pcb.key b.Pcb.key
                 | c -> c)
             | c -> c)

let origins t =
  Hashtbl.fold
    (fun origin s acc -> if Hashtbl.length s.by_key > 0 then origin :: acc else acc)
    t.origins []
  |> List.sort compare

let count t ~origin =
  match Hashtbl.find_opt t.origins origin with
  | None -> 0
  | Some s -> Hashtbl.length s.by_key

let total t =
  Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.by_key) t.origins 0

let last_modified t ~origin =
  match Hashtbl.find_opt t.origins origin with
  | None -> neg_infinity
  | Some s -> s.last_modified

let prune_expired t ~now =
  Hashtbl.iter
    (fun _ s ->
      let stale =
        Hashtbl.fold
          (fun key p acc -> if Pcb.is_valid p ~now then acc else key :: acc)
          s.by_key []
      in
      List.iter (Hashtbl.remove s.by_key) stale;
      invalidate s)
    t.origins

let drop_link t ~link =
  let dropped = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      let doomed =
        Hashtbl.fold
          (fun key (p : Pcb.t) acc ->
            if Array.exists (fun l -> l = link) p.Pcb.links then key :: acc
            else acc)
          s.by_key []
      in
      List.iter
        (fun key ->
          Hashtbl.remove s.by_key key;
          incr dropped)
        doomed;
      invalidate s)
    t.origins;
  !dropped

let all_paths t ~now =
  Hashtbl.fold
    (fun _ s acc ->
      Hashtbl.fold
        (fun _ p acc -> if Pcb.is_valid p ~now then p :: acc else acc)
        s.by_key acc)
    t.origins []
  |> List.sort (fun (a : Pcb.t) (b : Pcb.t) ->
         compare (a.Pcb.origin, a.Pcb.key) (b.Pcb.origin, b.Pcb.key))

(* PCBs travel in their wire encoding; decoding rebuilds the key. *)
let write w t =
  let by_key (a : Pcb.t) (b : Pcb.t) = String.compare a.Pcb.key b.Pcb.key in
  Snapshot.w_int w t.limit;
  Snapshot.w_list w
    (fun w (origin, s) ->
      Snapshot.w_int w origin;
      Snapshot.w_f64 w s.last_modified;
      Snapshot.w_list w
        (fun w p -> Snapshot.w_str w (Pcb_codec.encode p))
        (Hashtbl.fold (fun _ p acc -> p :: acc) s.by_key []
        |> List.sort by_key))
    (Hashtbl.fold (fun origin s acc -> (origin, s) :: acc) t.origins []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b))

let read r =
  let limit = Snapshot.r_int r in
  if limit < 1 then Snapshot.corrupt "bad beacon store limit %d" limit;
  let t = create ~limit in
  Snapshot.r_sorted r "beacon store origins" (fun r ->
      let origin = Snapshot.r_int r in
      let s = slot t origin in
      s.last_modified <- Snapshot.r_f64 r;
      Snapshot.r_sorted r "beacon store PCBs" (fun r ->
          let p =
            match Pcb_codec.decode (Snapshot.r_str r) with
            | Ok p -> p
            | Error e -> Snapshot.corrupt "bad PCB: %s" e
          in
          if p.Pcb.origin <> origin || Hashtbl.length s.by_key >= limit then
            Snapshot.corrupt "beacon store slot %d: surplus or foreign PCB"
              origin;
          Hashtbl.replace s.by_key p.Pcb.key p;
          p.Pcb.key);
      origin);
  t
