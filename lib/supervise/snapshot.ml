exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- writer ---------------------------------------------------------- *)

type writer = Buffer.t

let writer () = Buffer.create 4096

let contents = Buffer.contents

let w_u8 w v = Buffer.add_char w (Char.chr (v land 0xFF))

let w_i64 w v =
  for byte = 7 downto 0 do
    Buffer.add_char w
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (byte * 8)) land 0xFF))
  done

let w_int w v = w_i64 w (Int64.of_int v)

let w_f64 w v = w_i64 w (Int64.bits_of_float v)

let w_bool w v = w_u8 w (if v then 1 else 0)

let w_raw w s = Buffer.add_string w s

let w_str w s =
  w_int w (String.length s);
  Buffer.add_string w s

let w_list w f l =
  w_int w (List.length l);
  List.iter (f w) l

let w_arr w f a =
  w_int w (Array.length a);
  Array.iter (f w) a

let w_opt w f = function
  | None -> w_u8 w 0
  | Some v ->
      w_u8 w 1;
      f w v

(* --- reader ---------------------------------------------------------- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let need r n =
  if r.pos + n > String.length r.data then
    corrupt "snapshot truncated at byte %d (need %d more)" r.pos n

let r_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_i64 r =
  need r 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos]));
    r.pos <- r.pos + 1
  done;
  !v

let r_int r =
  let v = r_i64 r in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then corrupt "integer out of range: %Ld" v;
  i

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad bool tag %d" v

let r_len r what =
  let n = r_int r in
  if n < 0 || n > String.length r.data - r.pos then
    corrupt "implausible %s length %d" what n;
  n

let r_str r =
  let n = r_len r "string" in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_list r f = List.init (r_len r "list") (fun _ -> f r)

(* A list the encoder wrote in strictly increasing [key] order (the
   dump's sort order, no duplicates); anything else is corrupt. *)
let r_sorted r what key f =
  let l = r_list r f in
  let rec ok = function
    | a :: (b :: _ as rest) -> compare (key a) (key b) < 0 && ok rest
    | _ -> true
  in
  if not (ok l) then corrupt "%s out of order" what;
  l

let r_arr r f = Array.init (r_len r "array") (fun _ -> f r)

let r_opt r f =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | v -> corrupt "bad option tag %d" v

let r_end r =
  if r.pos <> String.length r.data then
    corrupt "trailing bytes: %d of %d consumed" r.pos (String.length r.data)

(* --- domain values --------------------------------------------------- *)

let w_rng w rng = w_i64 w (Rng.state rng)

let r_rng r = Rng.of_state (r_i64 r)

let w_pcb w p = w_str w (Pcb_codec.encode p)

let r_pcb r =
  match Pcb_codec.decode (r_str r) with
  | Ok p -> p
  | Error e -> corrupt "bad PCB: %s" e

let w_hop w (h : Segment.hop_field) =
  w_int w h.Segment.as_idx;
  w_int w h.Segment.ingress;
  w_int w h.Segment.egress;
  w_int w h.Segment.link_in;
  w_int w h.Segment.link_out;
  w_arr w w_int h.Segment.peers;
  w_f64 w h.Segment.expiry;
  w_str w h.Segment.mac

let r_hop r =
  let as_idx = r_int r in
  let ingress = r_int r in
  let egress = r_int r in
  let link_in = r_int r in
  let link_out = r_int r in
  let peers = r_arr r r_int in
  let expiry = r_f64 r in
  let mac = r_str r in
  { Segment.as_idx; ingress; egress; link_in; link_out; peers; expiry; mac }

let w_segment w (s : Segment.t) =
  w_u8 w
    (match s.Segment.kind with
    | Segment.Up -> 0
    | Segment.Down -> 1
    | Segment.Core_seg -> 2);
  w_int w s.Segment.origin;
  w_int w s.Segment.leaf;
  w_f64 w s.Segment.timestamp;
  w_f64 w s.Segment.expiry;
  w_arr w w_hop s.Segment.hops;
  w_arr w w_int s.Segment.links

let r_segment r =
  let kind =
    match r_u8 r with
    | 0 -> Segment.Up
    | 1 -> Segment.Down
    | 2 -> Segment.Core_seg
    | v -> corrupt "bad segment kind %d" v
  in
  let origin = r_int r in
  let leaf = r_int r in
  let timestamp = r_f64 r in
  let expiry = r_f64 r in
  let hops = r_arr r r_hop in
  let links = r_arr r r_int in
  { Segment.kind; origin; leaf; timestamp; expiry; hops; links }

let w_histogram w (d : Histogram.dump) =
  w_f64 w d.Histogram.d_growth;
  w_int w d.Histogram.d_count;
  w_f64 w d.Histogram.d_sum;
  w_f64 w d.Histogram.d_vmin;
  w_f64 w d.Histogram.d_vmax;
  w_int w d.Histogram.d_nonpos;
  w_list w
    (fun w (i, c) ->
      w_int w i;
      w_int w c)
    d.Histogram.d_buckets

let r_histogram r =
  let d_growth = r_f64 r in
  if not (Float.is_finite d_growth && d_growth > 1.0) then
    corrupt "bad histogram growth %h" d_growth;
  let d_count = r_int r in
  let d_sum = r_f64 r in
  let d_vmin = r_f64 r in
  let d_vmax = r_f64 r in
  let d_nonpos = r_int r in
  let d_buckets =
    r_sorted r "histogram buckets" fst (fun r ->
        let i = r_int r in
        let c = r_int r in
        (i, c))
  in
  { Histogram.d_growth; d_count; d_sum; d_vmin; d_vmax; d_nonpos; d_buckets }

let w_labels w (labels : Registry.labels) =
  w_list w
    (fun w (k, v) ->
      w_str w k;
      w_str w v)
    labels

let r_labels r =
  let l =
    r_list r (fun r ->
        let k = r_str r in
        let v = r_str r in
        (k, v))
  in
  if List.stable_sort (fun (a, _) (b, _) -> compare a b) l <> l then
    corrupt "metric labels out of order";
  l

let w_registry w (d : Registry.dump) =
  w_list w
    (fun w (name, labels, m) ->
      w_str w name;
      w_labels w labels;
      match m with
      | Registry.D_counter v ->
          w_u8 w 0;
          w_f64 w v
      | Registry.D_gauge v ->
          w_u8 w 1;
          w_f64 w v
      | Registry.D_hist h ->
          w_u8 w 2;
          w_histogram w h)
    d

let r_registry r =
  r_sorted r "registry series" (fun (n, l, _) -> (n, l)) (fun r ->
      let name = r_str r in
      let labels = r_labels r in
      let m =
        match r_u8 r with
        | 0 -> Registry.D_counter (r_f64 r)
        | 1 -> Registry.D_gauge (r_f64 r)
        | 2 -> Registry.D_hist (r_histogram r)
        | v -> corrupt "bad metric tag %d" v
      in
      (name, labels, m))

let w_beacon_store w (d : Beacon_store.dump) =
  w_int w d.Beacon_store.d_limit;
  w_list w
    (fun w (origin, last_modified, pcbs) ->
      w_int w origin;
      w_f64 w last_modified;
      w_list w w_pcb pcbs)
    d.Beacon_store.d_origins

let r_beacon_store r =
  let d_limit = r_int r in
  if d_limit < 1 then corrupt "bad beacon store limit %d" d_limit;
  let d_origins =
    r_sorted r "beacon store origins" (fun (o, _, _) -> o) (fun r ->
        let origin = r_int r in
        let last_modified = r_f64 r in
        let pcbs = r_sorted r "beacon store PCBs" (fun p -> p.Pcb.key) r_pcb in
        if List.compare_length_with pcbs d_limit > 0
           || List.exists (fun (p : Pcb.t) -> p.Pcb.origin <> origin) pcbs
        then corrupt "beacon store slot %d: surplus or foreign PCB" origin;
        (origin, last_modified, pcbs))
  in
  { Beacon_store.d_limit; d_origins }

let w_ps_stats w (s : Path_server.stats) =
  w_int w s.Path_server.registrations;
  w_int w s.Path_server.registration_bytes;
  w_int w s.Path_server.lookups_down;
  w_int w s.Path_server.lookups_core;
  w_int w s.Path_server.reply_segments_down;
  w_int w s.Path_server.reply_segments_core;
  w_int w s.Path_server.revocations;
  w_int w s.Path_server.revoked_segments

let r_ps_stats r =
  let registrations = r_int r in
  let registration_bytes = r_int r in
  let lookups_down = r_int r in
  let lookups_core = r_int r in
  let reply_segments_down = r_int r in
  let reply_segments_core = r_int r in
  let revocations = r_int r in
  let revoked_segments = r_int r in
  {
    Path_server.registrations;
    registration_bytes;
    lookups_down;
    lookups_core;
    reply_segments_down;
    reply_segments_core;
    revocations;
    revoked_segments;
  }

let w_bucket_list w l =
  w_list w
    (fun w (idx, segs) ->
      w_int w idx;
      w_list w w_segment segs)
    l

(* A bucket is never empty, holds at most [limit] segments and is keyed
   by [idx_of] of each of them (leaf for down, origin for core). *)
let r_bucket_list r ~limit ~idx_of =
  r_sorted r "path server buckets" fst (fun r ->
      let idx = r_int r in
      let segs = r_sorted r "segments" Path_server.seg_key r_segment in
      if segs = []
         || List.compare_length_with segs limit > 0
         || List.exists (fun s -> idx_of s <> idx) segs
      then corrupt "path server bucket %d: empty, surplus or foreign" idx;
      (idx, segs))

let w_path_server w (d : Path_server.dump) =
  w_int w d.Path_server.d_per_leaf_limit;
  w_bucket_list w d.Path_server.d_down;
  w_bucket_list w d.Path_server.d_core;
  w_ps_stats w d.Path_server.d_stats

let r_path_server r =
  let d_per_leaf_limit = r_int r in
  if d_per_leaf_limit < 1 then
    corrupt "bad path server per-leaf limit %d" d_per_leaf_limit;
  let r_buckets = r_bucket_list r ~limit:d_per_leaf_limit in
  let d_down = r_buckets ~idx_of:(fun s -> s.Segment.leaf) in
  let d_core = r_buckets ~idx_of:(fun s -> s.Segment.origin) in
  let d_stats = r_ps_stats r in
  { Path_server.d_per_leaf_limit; d_down; d_core; d_stats }

let w_link_state w (d : Link_state.dump) =
  w_arr w w_int d.Link_state.d_holds;
  w_arr w w_f64 d.Link_state.d_since

let r_link_state r =
  let d_holds = r_arr r r_int in
  let d_since = r_arr r r_f64 in
  if Array.length d_holds <> Array.length d_since then
    corrupt "link state: %d holds but %d timestamps" (Array.length d_holds)
      (Array.length d_since);
  { Link_state.d_holds; d_since }

let w_beacon_stats w (s : Beaconing.stats) =
  w_arr w w_f64 s.Beaconing.bytes_on_iface;
  w_arr w w_int s.Beaconing.pcbs_on_iface;
  w_f64 w s.Beaconing.total_bytes;
  w_int w s.Beaconing.total_pcbs;
  w_int w s.Beaconing.crypto_failures;
  w_int w s.Beaconing.rounds

let r_beacon_stats r =
  let bytes_on_iface = r_arr r r_f64 in
  let pcbs_on_iface = r_arr r r_int in
  let total_bytes = r_f64 r in
  let total_pcbs = r_int r in
  let crypto_failures = r_int r in
  let rounds = r_int r in
  {
    Beaconing.bytes_on_iface;
    pcbs_on_iface;
    total_bytes;
    total_pcbs;
    crypto_failures;
    rounds;
  }

let w_pair w (a, b) =
  w_int w a;
  w_int w b

let r_pair r =
  let a = r_int r in
  let b = r_int r in
  (a, b)

let w_recovery w (d : Recovery.dump) =
  w_int w d.Recovery.d_events_down;
  w_int w d.Recovery.d_events_up;
  w_list w w_pair d.Recovery.d_affected;
  w_int w d.Recovery.d_failovers;
  w_int w d.Recovery.d_blackouts;
  w_int w d.Recovery.d_unrecovered;
  w_f64 w d.Recovery.d_blackout_time_s;
  w_arr w w_f64 d.Recovery.d_recovery;
  w_arr w w_f64 d.Recovery.d_blackout;
  w_list w
    (fun w (pair, since) ->
      w_pair w pair;
      w_f64 w since)
    d.Recovery.d_open;
  w_int w d.Recovery.d_revoked_segments;
  w_int w d.Recovery.d_revocation_msgs;
  w_f64 w d.Recovery.d_revocation_bytes;
  w_int w d.Recovery.d_dropped_pcbs

let r_recovery r =
  let d_events_down = r_int r in
  let d_events_up = r_int r in
  let d_affected = r_sorted r "recovery pairs" Fun.id r_pair in
  let d_failovers = r_int r in
  let d_blackouts = r_int r in
  let d_unrecovered = r_int r in
  let d_blackout_time_s = r_f64 r in
  let d_recovery = r_arr r r_f64 in
  let d_blackout = r_arr r r_f64 in
  let d_open =
    r_sorted r "open recovery windows" fst (fun r ->
        let pair = r_pair r in
        let since = r_f64 r in
        (pair, since))
  in
  let d_revoked_segments = r_int r in
  let d_revocation_msgs = r_int r in
  let d_revocation_bytes = r_f64 r in
  let d_dropped_pcbs = r_int r in
  {
    Recovery.d_events_down;
    d_events_up;
    d_affected;
    d_failovers;
    d_blackouts;
    d_unrecovered;
    d_blackout_time_s;
    d_recovery;
    d_blackout;
    d_open;
    d_revoked_segments;
    d_revocation_msgs;
    d_revocation_bytes;
    d_dropped_pcbs;
  }
