(* One origin's entries, [entries.(0 .. n-1)], in rank order: fewer
   hops first, then newer, then the smaller path key. Keys are unique,
   so the order is strict. [born_by] and [lives_until] are conservative
   validity bounds: no entry's timestamp exceeds [born_by] and no entry
   expires before [lives_until]. *)
type per_origin = {
  mutable entries : Pcb.t array;
  mutable n : int;
  mutable last_modified : float;
  mutable born_by : float;
  mutable lives_until : float;
}

type t = { limit : int; origins : (int, per_origin) Hashtbl.t }

type insert_outcome = Added | Refreshed | Evicted_other | Rejected

let create ~limit =
  if limit < 1 then invalid_arg "Beacon_store.create: limit must be >= 1";
  { limit; origins = Hashtbl.create 64 }

(* Fills the array cells past [n], so a removed PCB is not kept alive. *)
let filler = Pcb.origin_pcb ~origin:(-1) ~now:0.0 ~lifetime:0.0

(* [Hashtbl.find], not [find_opt]: a decision allocates no option. *)
let slot t origin =
  match Hashtbl.find t.origins origin with
  | s -> s
  | exception Not_found ->
      let s =
        {
          entries = Array.make (min t.limit 4) filler;
          n = 0;
          last_modified = neg_infinity;
          born_by = neg_infinity;
          lives_until = infinity;
        }
      in
      Hashtbl.replace t.origins origin s;
      s

(* A candidate is [p]'s origin, timestamp and lifetime on either [p]'s
   own path ([link = built]) or [p]'s path extended over [link]. *)
let built = -1

(* The rank order: fewer hops, then newer, then the smaller key.
   Negative when the candidate ranks before [b]. *)
let compare_rank (p : Pcb.t) ~hops ~link (b : Pcb.t) =
  let hb = Pcb.num_hops b in
  if hops <> hb then Int.compare hops hb
  else if p.Pcb.timestamp <> b.Pcb.timestamp then
    Float.compare b.Pcb.timestamp p.Pcb.timestamp
  else if link = built then String.compare p.Pcb.key b.Pcb.key
  else Pcb.compare_extension_key p ~link b.Pcb.key

(* Widen the validity bounds to cover [p]. *)
let cover s (p : Pcb.t) =
  if p.Pcb.timestamp > s.born_by then s.born_by <- p.Pcb.timestamp;
  if Pcb.expires_at p < s.lives_until then s.lives_until <- Pcb.expires_at p

(* The index of the worst entry of a non-empty slot at [now]: expired
   or not yet valid entries are worse than valid ones, and within
   either class the rank order decides. While the bounds prove every
   entry valid that is the last one; otherwise one scan finds the last
   invalid entry and tightens the bounds. *)
let worst s ~now =
  if now >= s.born_by && now < s.lives_until then s.n - 1
  else begin
    let w = ref (-1) in
    s.born_by <- neg_infinity;
    s.lives_until <- infinity;
    for i = 0 to s.n - 1 do
      let p = s.entries.(i) in
      cover s p;
      if not (Pcb.is_valid p ~now) then w := i
    done;
    if !w >= 0 then !w else s.n - 1
  end

(* The first index whose entry has at least [hops] hops. *)
let hop_group s hops =
  let lo = ref 0 and hi = ref s.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Pcb.num_hops s.entries.(mid) < hops then lo := mid + 1 else hi := mid
  done;
  !lo

(* Does [e], of [m + 1] hops, run over [links.(0 .. m-1)] then [last]?
   The last link differs most often, so it is compared first. *)
let same_path (e : Pcb.t) links m last =
  let el = e.Pcb.links in
  m < 0
  || el.(m) = last
     &&
     let i = ref 0 in
     while !i < m && el.(!i) = links.(!i) do
       incr i
     done;
     !i = m

(* The index of the entry on the candidate's path, or -1: a binary
   search finds the candidate's hop-count group, then a scan of it. *)
let find s (p : Pcb.t) ~hops ~link =
  let links = p.Pcb.links and m = hops - 1 in
  let last = if link <> built then link else if m >= 0 then links.(m) else -1 in
  let i = ref (hop_group s hops) in
  while
    !i < s.n
    && Pcb.num_hops s.entries.(!i) = hops
    && not (same_path s.entries.(!i) links m last)
  do
    incr i
  done;
  if !i < s.n && Pcb.num_hops s.entries.(!i) = hops then !i else -1

let remove s i =
  Array.blit s.entries (i + 1) s.entries i (s.n - i - 1);
  s.n <- s.n - 1;
  s.entries.(s.n) <- filler

(* Insert [pcb] at its rank: a binary search, then one blit. *)
let add t s ~now (pcb : Pcb.t) =
  if s.n = Array.length s.entries then begin
    let grown = Array.make (min t.limit (2 * s.n)) filler in
    Array.blit s.entries 0 grown 0 s.n;
    s.entries <- grown
  end;
  let hops = Pcb.num_hops pcb in
  let lo = ref 0 and hi = ref s.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_rank pcb ~hops ~link:built s.entries.(mid) > 0 then lo := mid + 1
    else hi := mid
  done;
  Array.blit s.entries !lo s.entries (!lo + 1) (s.n - !lo);
  s.entries.(!lo) <- pcb;
  s.n <- s.n + 1;
  cover s pcb;
  s.last_modified <- now

(* The store's one decision, on the candidate [p] with [~link] (see
   [built]). The PCB to keep is [build x], made only when the outcome is
   not [Rejected]. A full slot first compares the candidate with its
   worst entry: one that is not strictly better is rejected with no
   lookup, which is exact, since an older instance of the candidate's
   own path ranks below the candidate and the worst entry no better
   than that instance. *)
let decide t ~now (p : Pcb.t) ~link ~build x =
  if not (Pcb.is_valid p ~now) then Rejected
  else begin
    let s = slot t p.Pcb.origin in
    let hops = Pcb.num_hops p + if link = built then 0 else 1 in
    let full = s.n >= t.limit in
    let w = if full then worst s ~now else -1 in
    if
      full
      && Pcb.is_valid s.entries.(w) ~now
      && compare_rank p ~hops ~link s.entries.(w) >= 0
    then Rejected
    else
      let i = find s p ~hops ~link in
      if i >= 0 then
        if p.Pcb.timestamp > s.entries.(i).Pcb.timestamp then begin
          remove s i;
          add t s ~now (build x);
          Refreshed
        end
        else Rejected
      else begin
        if full then remove s w;
        add t s ~now (build x);
        if full then Evicted_other else Added
      end
  end

let insert t ~now pcb = decide t ~now pcb ~link:built ~build:Fun.id pcb

let offer t ~now parent ~link ~build x = decide t ~now parent ~link ~build x

(* [s]'s entries valid at [now], in rank order, before [acc]. *)
let valid s ~now acc =
  let acc = ref acc in
  for i = s.n - 1 downto 0 do
    if Pcb.is_valid s.entries.(i) ~now then acc := s.entries.(i) :: !acc
  done;
  !acc

let paths t ~now ~origin =
  match Hashtbl.find_opt t.origins origin with
  | None -> []
  | Some s -> valid s ~now []

let origins t =
  Hashtbl.fold
    (fun origin s acc -> if s.n > 0 then origin :: acc else acc)
    t.origins []
  |> List.sort compare

let count t ~origin =
  match Hashtbl.find_opt t.origins origin with None -> 0 | Some s -> s.n

let total t = Hashtbl.fold (fun _ s acc -> acc + s.n) t.origins 0

let last_modified t ~origin =
  match Hashtbl.find_opt t.origins origin with
  | None -> neg_infinity
  | Some s -> s.last_modified

(* Keep the entries [keep] accepts, in order, with exact bounds;
   returns how many were dropped. *)
let filter s keep =
  let kept = ref 0 in
  s.born_by <- neg_infinity;
  s.lives_until <- infinity;
  for i = 0 to s.n - 1 do
    let p = s.entries.(i) in
    if keep p then begin
      s.entries.(!kept) <- p;
      incr kept;
      cover s p
    end
  done;
  let dropped = s.n - !kept in
  Array.fill s.entries !kept dropped filler;
  s.n <- !kept;
  dropped

let prune_expired t ~now =
  Hashtbl.iter
    (fun _ s -> ignore (filter s (fun p -> Pcb.is_valid p ~now)))
    t.origins

let drop_link t ~link =
  Hashtbl.fold
    (fun _ s acc ->
      acc + filter s (fun (p : Pcb.t) -> not (Array.mem link p.Pcb.links)))
    t.origins 0

let all_paths t ~now =
  Hashtbl.fold (fun _ s acc -> valid s ~now acc) t.origins []
  |> List.sort (fun (a : Pcb.t) (b : Pcb.t) ->
         compare (a.Pcb.origin, a.Pcb.key) (b.Pcb.origin, b.Pcb.key))

(* PCBs travel in their wire encoding; decoding rebuilds the key. *)
let write w t =
  Snapshot.w_int w t.limit;
  Snapshot.w_list w
    (fun w (origin, s) ->
      Snapshot.w_int w origin;
      Snapshot.w_f64 w s.last_modified;
      let pcbs = Array.sub s.entries 0 s.n in
      Array.sort
        (fun (a : Pcb.t) (b : Pcb.t) -> String.compare a.Pcb.key b.Pcb.key)
        pcbs;
      Snapshot.w_list w
        (fun w p -> Snapshot.w_str w (Pcb_codec.encode p))
        (Array.to_list pcbs))
    (Hashtbl.fold (fun origin s acc -> (origin, s) :: acc) t.origins []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b))

let read r =
  let limit = Snapshot.r_int r in
  if limit < 1 then Snapshot.corrupt "bad beacon store limit %d" limit;
  let t = create ~limit in
  Snapshot.r_sorted r "beacon store origins" (fun r ->
      let origin = Snapshot.r_int r in
      let s = slot t origin in
      let last_modified = Snapshot.r_f64 r in
      Snapshot.r_sorted r "beacon store PCBs" (fun r ->
          let p =
            match Pcb_codec.decode (Snapshot.r_str r) with
            | Ok p -> p
            | Error e -> Snapshot.corrupt "bad PCB: %s" e
          in
          if p.Pcb.origin <> origin || s.n >= limit then
            Snapshot.corrupt "beacon store slot %d: surplus or foreign PCB"
              origin;
          add t s ~now:last_modified p;
          p.Pcb.key);
      s.last_modified <- last_modified;
      origin);
  t
