(* Tests for scion_core: PCBs, the beacon store, the scoring functions
   of §4.2, diversity state, and the beaconing engine. *)

let check = Alcotest.check

(* A triangle of core ASes with one parallel link:
   0 === 1, 0 -- 2, 1 -- 2. *)
let triangle () =
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let a1 = Graph.add_as b ~core:true (Id.ia 1 2) in
  let a2 = Graph.add_as b ~core:true (Id.ia 2 1) in
  Graph.add_link b ~count:2 ~rel:Graph.Core a0 a1;
  Graph.add_link b ~rel:Graph.Core a0 a2;
  Graph.add_link b ~rel:Graph.Core a1 a2;
  Graph.freeze b

(* A chain of core ASes 0 - 1 - 2 - 3. *)
let chain n =
  let b = Graph.builder () in
  for i = 0 to n - 1 do
    ignore (Graph.add_as b ~core:true (Id.ia 1 (i + 1)))
  done;
  for i = 0 to n - 2 do
    Graph.add_link b ~rel:Graph.Core i (i + 1)
  done;
  Graph.freeze b

(* --- Pcb --- *)

let test_pcb_origin () =
  let p = Pcb.origin_pcb ~origin:7 ~now:100.0 ~lifetime:600.0 in
  check Alcotest.int "no hops" 0 (Pcb.num_hops p);
  Alcotest.(check bool) "valid" true (Pcb.is_valid p ~now:100.0);
  Alcotest.(check bool) "expired" false (Pcb.is_valid p ~now:700.0);
  Alcotest.(check (float 1e-9)) "expiry" 700.0 (Pcb.expires_at p);
  Alcotest.(check bool) "contains origin" true (Pcb.contains_as p 7);
  Alcotest.(check (option int)) "no last link" None (Pcb.last_link p)

let test_pcb_extend () =
  let p = Pcb.origin_pcb ~origin:0 ~now:0.0 ~lifetime:600.0 in
  let p1 = Pcb.extend p ~asn:0 ~ingress:0 ~egress:1 ~link:10 ~peers:[||] in
  let p2 = Pcb.extend p1 ~asn:5 ~ingress:2 ~egress:3 ~link:11 ~peers:[| 42 |] in
  check Alcotest.int "two hops" 2 (Pcb.num_hops p2);
  Alcotest.(check (option int)) "last link" (Some 11) (Pcb.last_link p2);
  Alcotest.(check bool) "contains 5" true (Pcb.contains_as p2 5);
  Alcotest.(check bool) "not contains 9" false (Pcb.contains_as p2 9);
  check Alcotest.string "key matches links" (Pcb.path_key [| 10; 11 |]) p2.Pcb.key

let test_pcb_wire_bytes () =
  let p = Pcb.origin_pcb ~origin:0 ~now:0.0 ~lifetime:600.0 in
  let p1 = Pcb.extend p ~asn:0 ~ingress:0 ~egress:1 ~link:0 ~peers:[||] in
  check Alcotest.int "one hop size" (Wire.pcb_bytes ~hops:1)
    (Pcb.wire_bytes p1);
  let p2 = Pcb.extend p1 ~asn:1 ~ingress:1 ~egress:2 ~link:1 ~peers:[| 5; 6 |] in
  check Alcotest.int "peering entries add 16 bytes each"
    (Wire.pcb_bytes ~hops:2 + 32)
    (Pcb.wire_bytes p2)

(* --- Beacon_store --- *)

let mk_pcb ?(origin = 0) ?(now = 0.0) ?(lifetime = 600.0) links =
  let p = ref (Pcb.origin_pcb ~origin ~now ~lifetime) in
  List.iteri
    (fun i l -> p := Pcb.extend !p ~asn:(100 + i) ~ingress:0 ~egress:1 ~link:l ~peers:[||])
    links;
  !p

let test_store_insert () =
  let s = Beacon_store.create ~limit:2 in
  check Alcotest.bool "added"
    (Beacon_store.insert s ~now:0.0 (mk_pcb [ 1 ]) = Beacon_store.Added)
    true;
  check Alcotest.int "count" 1 (Beacon_store.count s ~origin:0);
  check (Alcotest.list Alcotest.int) "origins" [ 0 ] (Beacon_store.origins s)

let test_store_refresh () =
  let s = Beacon_store.create ~limit:2 in
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb ~now:0.0 [ 1 ]));
  check Alcotest.bool "newer instance refreshes"
    (Beacon_store.insert s ~now:10.0 (mk_pcb ~now:10.0 [ 1 ]) = Beacon_store.Refreshed)
    true;
  check Alcotest.bool "older instance rejected"
    (Beacon_store.insert s ~now:10.0 (mk_pcb ~now:5.0 [ 1 ]) = Beacon_store.Rejected)
    true;
  check Alcotest.int "still one entry" 1 (Beacon_store.count s ~origin:0)

let test_store_limit_and_eviction () =
  let s = Beacon_store.create ~limit:2 in
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb [ 1; 2; 3 ]));
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb [ 4; 5 ]));
  (* Full. A longer path is rejected; a shorter one evicts the worst. *)
  check Alcotest.bool "longer rejected"
    (Beacon_store.insert s ~now:0.0 (mk_pcb [ 6; 7; 8; 9 ]) = Beacon_store.Rejected)
    true;
  check Alcotest.bool "shorter evicts"
    (Beacon_store.insert s ~now:0.0 (mk_pcb [ 6 ]) = Beacon_store.Evicted_other)
    true;
  check Alcotest.int "limit respected" 2 (Beacon_store.count s ~origin:0)

let test_store_expired_rejected () =
  let s = Beacon_store.create ~limit:5 in
  check Alcotest.bool "expired rejected"
    (Beacon_store.insert s ~now:1000.0 (mk_pcb ~now:0.0 ~lifetime:600.0 [ 1 ])
    = Beacon_store.Rejected)
    true

let test_store_paths_sorted () =
  let s = Beacon_store.create ~limit:5 in
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb [ 1; 2; 3 ]));
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb [ 4 ]));
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb [ 5; 6 ]));
  let lens = List.map Pcb.num_hops (Beacon_store.paths s ~now:0.0 ~origin:0) in
  check (Alcotest.list Alcotest.int) "shortest first" [ 1; 2; 3 ] lens

let test_store_prune () =
  let s = Beacon_store.create ~limit:5 in
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb ~now:0.0 ~lifetime:100.0 [ 1 ]));
  ignore (Beacon_store.insert s ~now:0.0 (mk_pcb ~now:0.0 ~lifetime:900.0 [ 2 ]));
  Beacon_store.prune_expired s ~now:500.0;
  check Alcotest.int "one survivor" 1 (Beacon_store.count s ~origin:0)

let test_store_last_modified () =
  let s = Beacon_store.create ~limit:5 in
  Alcotest.(check bool) "initially -inf" true
    (Beacon_store.last_modified s ~origin:0 = neg_infinity);
  ignore (Beacon_store.insert s ~now:42.0 (mk_pcb [ 1 ]));
  Alcotest.(check (float 1e-9)) "updated" 42.0 (Beacon_store.last_modified s ~origin:0);
  (* A rejected insert must not bump the timestamp. *)
  ignore (Beacon_store.insert s ~now:50.0 (mk_pcb ~now:0.0 [ 1 ]));
  Alcotest.(check (float 1e-9)) "unchanged on reject" 42.0
    (Beacon_store.last_modified s ~origin:0)

let prop_store_limit =
  QCheck.Test.make ~name:"store never exceeds its per-origin limit" ~count:100
    QCheck.(list (list_of_size (Gen.int_range 1 5) (int_bound 30)))
    (fun pcbs ->
      let s = Beacon_store.create ~limit:3 in
      List.iter (fun links -> ignore (Beacon_store.insert s ~now:0.0 (mk_pcb links))) pcbs;
      Beacon_store.count s ~origin:0 <= 3)

(* Model-based check of Beacon_store against a naive list-based
   reference: full-scan eviction in the order documented in
   beacon_store.mli (expired or not yet valid, then more hops, then
   older, then greater path key). Random interleavings of inserts and
   offers (a parent plus a link) with mixed lifetimes and ages, clocks
   that repeat, advance and go back (so stored entries turn expired or
   not yet valid and the store's validity bounds go stale), several
   origins, prunes, link drops and write/read round trips must agree on
   every outcome; after every operation [paths] (in its rank order),
   [origins], [count], [total] and [last_modified] must agree, and at
   the end the bytes. Limits run from 1 to unlimited, so slots are
   full, grow, or never fill. *)
module Ref_store = struct
  type slot = { mutable lm : float; mutable pcbs : Pcb.t list }

  type t = { limit : int; mutable slots : (int * slot) list }

  let create ~limit = { limit; slots = [] }

  let rank (p : Pcb.t) = (Pcb.num_hops p, -.p.Pcb.timestamp, p.Pcb.key)

  let badness ~now (p : Pcb.t) = ((if Pcb.is_valid p ~now then 0 else 1), rank p)

  let insert t ~now (p : Pcb.t) =
    if not (Pcb.is_valid p ~now) then Beacon_store.Rejected
    else begin
      let s =
        match List.assoc_opt p.Pcb.origin t.slots with
        | Some s -> s
        | None ->
            let s = { lm = neg_infinity; pcbs = [] } in
            t.slots <- (p.Pcb.origin, s) :: t.slots;
            s
      in
      let keep outcome rest =
        s.pcbs <- p :: rest;
        s.lm <- now;
        outcome
      in
      match List.find_opt (fun (q : Pcb.t) -> q.Pcb.key = p.Pcb.key) s.pcbs with
      | Some q ->
          if p.Pcb.timestamp > q.Pcb.timestamp then
            keep Beacon_store.Refreshed (List.filter (fun q' -> q' != q) s.pcbs)
          else Beacon_store.Rejected
      | None when List.length s.pcbs < t.limit -> keep Beacon_store.Added s.pcbs
      | None ->
          let worst =
            List.fold_left
              (fun w q -> if compare (badness ~now q) (badness ~now w) > 0 then q else w)
              (List.hd s.pcbs) s.pcbs
          in
          if compare (badness ~now p) (badness ~now worst) < 0 then
            keep Beacon_store.Evicted_other (List.filter (fun q -> q != worst) s.pcbs)
          else Beacon_store.Rejected
    end

  let prune t ~now =
    List.iter (fun (_, s) -> s.pcbs <- List.filter (fun p -> Pcb.is_valid p ~now) s.pcbs) t.slots

  let drop_link t ~link =
    List.fold_left
      (fun acc (_, s) ->
        let kept, gone =
          List.partition (fun (p : Pcb.t) -> not (Array.mem link p.Pcb.links)) s.pcbs
        in
        s.pcbs <- kept;
        acc + List.length gone)
      0 t.slots

  let slot_pcbs t origin =
    match List.assoc_opt origin t.slots with Some s -> s.pcbs | None -> []

  let paths t ~now ~origin =
    List.filter (fun p -> Pcb.is_valid p ~now) (slot_pcbs t origin)
    |> List.sort (fun a b -> compare (rank a) (rank b))

  let origins t =
    List.sort compare
      (List.filter_map (fun (o, s) -> if s.pcbs = [] then None else Some o) t.slots)

  let count t ~origin = List.length (slot_pcbs t origin)

  let total t = List.fold_left (fun acc (_, s) -> acc + List.length s.pcbs) 0 t.slots

  let last_modified t ~origin =
    match List.assoc_opt origin t.slots with Some s -> s.lm | None -> neg_infinity

  (* The layout beacon_store.mli documents: limit, then per origin
     (ascending) its last-modified time and its PCBs in key order. *)
  let bytes t =
    let w = Snapshot.writer () in
    Snapshot.w_int w t.limit;
    Snapshot.w_list w
      (fun w (o, s) ->
        Snapshot.w_int w o;
        Snapshot.w_f64 w s.lm;
        Snapshot.w_list w
          (fun w p -> Snapshot.w_str w (Pcb_codec.encode p))
          (List.sort
             (fun (a : Pcb.t) (b : Pcb.t) -> compare a.Pcb.key b.Pcb.key)
             s.pcbs))
      (List.sort compare t.slots);
    Snapshot.contents w
end

let store_bytes s =
  let w = Snapshot.writer () in
  Beacon_store.write w s;
  Snapshot.contents w

type store_op =
  | Insert of int * int list * float * float  (** origin, links, age, lifetime *)
  | Offer of int * int list * int * float * float
      (** origin, parent links, link, age, lifetime *)
  | Advance of float
  | Prune
  | Drop of int
  | Roundtrip

let show_store_op = function
  | Insert (o, links, age, lifetime) ->
      Printf.sprintf "insert o=%d [%s] age=%g life=%g" o
        (String.concat ";" (List.map string_of_int links))
        age lifetime
  | Offer (o, links, link, age, lifetime) ->
      Printf.sprintf "offer o=%d [%s] +%d age=%g life=%g" o
        (String.concat ";" (List.map string_of_int links))
        link age lifetime
  | Advance dt -> Printf.sprintf "advance %g" dt
  | Prune -> "prune"
  | Drop l -> Printf.sprintf "drop %d" l
  | Roundtrip -> "read (write s)"

let gen_store_op =
  let age = QCheck.Gen.oneofl [ -50.0; 0.0; 0.0; 50.0; 200.0; 400.0; 700.0 ] in
  let lifetime = QCheck.Gen.oneofl [ 100.0; 300.0; 600.0 ] in
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (o, links, age, lifetime) -> Insert (o, links, age, lifetime))
            (quad (int_bound 2) (list_size (int_range 1 4) (int_bound 6)) age lifetime) );
        ( 6,
          map
            (fun ((o, links, link), (age, lifetime)) -> Offer (o, links, link, age, lifetime))
            (pair
               (triple (int_bound 2) (list_size (int_range 0 3) (int_bound 6)) (int_bound 6))
               (pair age lifetime)) );
        (3, map (fun dt -> Advance dt) (oneofl [ -100.0; 0.0; 50.0; 250.0; 600.0 ]));
        (1, return Prune);
        (1, map (fun l -> Drop l) (int_bound 6));
        (1, return Roundtrip);
      ])

(* What a store shows of itself at [now], besides its bytes. *)
let store_view ~paths ~origins ~count ~total ~last_modified ~now =
  let entry (p : Pcb.t) = (p.Pcb.key, p.Pcb.timestamp, p.Pcb.lifetime) in
  ( List.init 4 (fun o ->
        (List.map entry (paths ~now ~origin:o), count ~origin:o, last_modified ~origin:o)),
    origins,
    total )

let prop_store_matches_reference =
  QCheck.Test.make ~name:"store agrees with a naive full-scan reference" ~count:300
    QCheck.(
      pair
        (make ~print:string_of_int Gen.(oneofl [ 1; 2; 5; 60; max_int ]))
        (make
           ~print:(fun ops -> String.concat "\n" (List.map show_store_op ops))
           Gen.(list_size (int_range 0 100) gen_store_op)))
    (fun (limit, ops) ->
      let s = ref (Beacon_store.create ~limit) in
      let r = Ref_store.create ~limit in
      let now = ref 1000.0 in
      let agree () =
        store_view ~now:!now ~paths:(Beacon_store.paths !s)
          ~origins:(Beacon_store.origins !s) ~count:(Beacon_store.count !s)
          ~total:(Beacon_store.total !s) ~last_modified:(Beacon_store.last_modified !s)
        = store_view ~now:!now ~paths:(Ref_store.paths r) ~origins:(Ref_store.origins r)
            ~count:(Ref_store.count r) ~total:(Ref_store.total r)
            ~last_modified:(Ref_store.last_modified r)
      in
      List.for_all
        (fun op ->
          (match op with
          | Insert (origin, links, age, lifetime) ->
              let p = mk_pcb ~origin ~now:(!now -. age) ~lifetime links in
              Beacon_store.insert !s ~now:!now p = Ref_store.insert r ~now:!now p
          | Offer (origin, links, link, age, lifetime) ->
              let parent = mk_pcb ~origin ~now:(!now -. age) ~lifetime links in
              let extend p =
                Pcb.extend p ~asn:(100 + List.length links) ~ingress:0 ~egress:1 ~link
                  ~peers:[||]
              in
              Beacon_store.offer !s ~now:!now parent ~link ~build:extend parent
              = Ref_store.insert r ~now:!now (extend parent)
          | Advance dt ->
              now := !now +. dt;
              true
          | Prune ->
              Beacon_store.prune_expired !s ~now:!now;
              Ref_store.prune r ~now:!now;
              true
          | Drop link -> Beacon_store.drop_link !s ~link = Ref_store.drop_link r ~link
          | Roundtrip ->
              let rd = Snapshot.reader (store_bytes !s) in
              s := Beacon_store.read rd;
              Snapshot.r_end rd;
              true)
          && agree ())
        ops
      && store_bytes !s = Ref_store.bytes r)

(* The lazy decision ([Beacon_store.offer] on the parent, building the
   extension only if it is kept) against building it first
   ([Pcb.extend], then [Beacon_store.insert]). Offers cover expired and
   not-yet-valid candidates, repeated keys with older, equal and newer
   timestamps, full slots, hop and timestamp ties broken by the key,
   and parents and senders advertising peering links (intra-ISD). Both
   stores must give the same outcomes and bytes, [build] must run
   exactly once per kept offer, and the key and size derived from the
   parent must be the built extension's. *)
type offer_op =
  | Offer of int * int list * int * float * float * int
      (** origin, parent links, link, age, lifetime, sender's peers *)
  | Later of float

let show_offer_op = function
  | Offer (o, links, link, age, lifetime, peers) ->
      Printf.sprintf "offer o=%d [%s] +%d age=%g life=%g peers=%d" o
        (String.concat ";" (List.map string_of_int links))
        link age lifetime peers
  | Later dt -> Printf.sprintf "later %g" dt

let gen_offer_op =
  QCheck.Gen.(
    frequency
      [
        ( 12,
          map
            (fun ((o, links, link), (age, lifetime, peers)) ->
              Offer (o, links, link, age, lifetime, peers))
            (pair
               (triple (int_bound 1)
                  (list_size (int_range 0 3) (int_bound 4))
                  (int_bound 4))
               (triple
                  (oneofl [ -50.0; 0.0; 0.0; 50.0; 200.0; 400.0; 700.0 ])
                  (oneofl [ 300.0; 600.0 ])
                  (int_bound 2))) );
        (1, map (fun dt -> Later dt) (oneofl [ 0.0; 50.0; 250.0 ]));
      ])

let prop_offer_equals_extend_insert =
  QCheck.Test.make ~name:"store offer equals extend then insert" ~count:500
    QCheck.(
      pair
        (make ~print:string_of_int Gen.(oneofl [ 1; 2; 5; 60 ]))
        (make
           ~print:(fun ops -> String.concat "\n" (List.map show_offer_op ops))
           Gen.(list_size (int_range 0 150) gen_offer_op)))
    (fun (limit, ops) ->
      let lazy_store = Beacon_store.create ~limit in
      let eager_store = Beacon_store.create ~limit in
      let now = ref 1000.0 in
      let builds = ref 0 in
      List.for_all
        (function
          | Later dt ->
              now := !now +. dt;
              true
          | Offer (origin, links, link, age, lifetime, peers) ->
              (* Hop i of the parent advertises i peering links. *)
              let born = !now -. age in
              let parent = ref (Pcb.origin_pcb ~origin ~now:born ~lifetime) in
              List.iteri
                (fun i l ->
                  parent :=
                    Pcb.extend !parent ~asn:(10 + l) ~ingress:i ~egress:(i + 1)
                      ~link:l ~peers:(Array.init i (fun k -> 30 + k)))
                links;
              let parent = !parent in
              let extend p =
                Pcb.extend p ~asn:(20 + link) ~ingress:3 ~egress:4 ~link
                  ~peers:(Array.init peers (fun k -> 40 + k))
              in
              let ext = extend parent in
              let before = !builds in
              let got =
                Beacon_store.offer lazy_store ~now:!now parent ~link
                  ~build:(fun p ->
                    incr builds;
                    extend p)
                  parent
              in
              got = Beacon_store.insert eager_store ~now:!now ext
              && !builds - before
                 = (if got = Beacon_store.Rejected then 0 else 1)
              && Pcb.compare_extension_key parent ~link ext.Pcb.key = 0
              && Pcb.extension_wire_bytes parent ~peers = Pcb.wire_bytes ext)
        ops
      && store_bytes lazy_store = store_bytes eager_store)

(* [Pcb.compare_extension_key] against [String.compare] of the built
   extension's key, on keys of equal, shorter and longer length that
   share a prefix with it and differ by one link moved by 1, 256 or
   65536: each of a link's three key bytes decides somewhere. *)
let prop_compare_extension_key =
  let link = QCheck.Gen.(oneof [ int_bound 3; int_range 255 258; int_range 65535 65538;
                                 return 0xFFFFFF ]) in
  QCheck.Test.make ~name:"pcb compare_extension_key is String.compare" ~count:1000
    QCheck.(
      make
        ~print:(fun ((parent, link, cut), (extra, pos, delta)) ->
          Printf.sprintf "parent [%s] +%d cut %d extra [%s] at %d by %d"
            (String.concat ";" (List.map string_of_int parent))
            link cut
            (String.concat ";" (List.map string_of_int extra))
            pos delta)
        Gen.(
          pair
            (triple (list_size (int_range 0 3) link) link (int_bound 2))
            (triple (list_size (int_range 0 2) link) (int_bound 5)
               (oneofl [ 0; 1; -1; 256; -256; 65536; -65536 ]))))
    (fun ((parent_links, link, cut), (extra, pos, delta)) ->
      let parent = mk_pcb parent_links in
      let ext = Pcb.extend parent ~asn:9 ~ingress:0 ~egress:1 ~link ~peers:[||] in
      let base = Array.to_list ext.Pcb.links in
      let kept = List.filteri (fun i _ -> i < List.length base - cut) base @ extra in
      let other =
        Array.of_list
          (List.mapi
             (fun i l ->
               if i = pos mod max 1 (List.length kept) then
                 max 0 (min 0xFFFFFF (l + delta))
               else l)
             kept)
      in
      let key = Pcb.path_key other in
      compare (Pcb.compare_extension_key parent ~link key) 0
      = compare (String.compare ext.Pcb.key key) 0)

(* --- Scoring (§4.2) --- *)

let params = Beacon_policy.default_div_params

let test_score_fresh_age_zero () =
  Alcotest.(check (float 1e-9)) "fresh scores 1" 1.0
    (Beacon_policy.score_fresh params ~ds:0.5 ~age:0.0 ~lifetime:600.0)

let test_score_fresh_decreasing_in_age () =
  let s1 = Beacon_policy.score_fresh params ~ds:0.8 ~age:100.0 ~lifetime:600.0 in
  let s2 = Beacon_policy.score_fresh params ~ds:0.8 ~age:300.0 ~lifetime:600.0 in
  Alcotest.(check bool) "older scores lower" true (s2 < s1)

let test_score_fresh_increasing_in_ds () =
  let lo = Beacon_policy.score_fresh params ~ds:0.3 ~age:100.0 ~lifetime:600.0 in
  let hi = Beacon_policy.score_fresh params ~ds:0.9 ~age:100.0 ~lifetime:600.0 in
  Alcotest.(check bool) "more diverse scores higher" true (hi > lo)

let test_score_resend_suppression () =
  (* Just sent: remaining lifetimes equal, must be heavily suppressed. *)
  let s =
    Beacon_policy.score_resend params ~ds:0.9 ~sent_remaining:600.0 ~current_remaining:600.0
  in
  Alcotest.(check bool) "suppressed" true (s < params.Beacon_policy.threshold)

let test_score_resend_refresh () =
  (* Sent instance nearly expired, fresh instance available: resend. *)
  let s =
    Beacon_policy.score_resend params ~ds:0.9 ~sent_remaining:10.0 ~current_remaining:600.0
  in
  Alcotest.(check bool) "refresh allowed" true (s > params.Beacon_policy.threshold)

let test_score_resend_monotone () =
  let prev = ref 2.0 in
  for i = 0 to 10 do
    let sr = float_of_int i *. 60.0 in
    let s =
      Beacon_policy.score_resend params ~ds:0.9 ~sent_remaining:sr ~current_remaining:600.0
    in
    Alcotest.(check bool) "decreasing in sent_remaining" true (s <= !prev);
    prev := s
  done

let test_diversity_of_gm () =
  Alcotest.(check (float 1e-9)) "gm 1 -> 1" 1.0 (Beacon_policy.diversity_of_gm params 1.0);
  Alcotest.(check (float 1e-9)) "gm beyond max -> 0" 0.0
    (Beacon_policy.diversity_of_gm params (params.Beacon_policy.gm_max +. 2.0));
  let mid = Beacon_policy.diversity_of_gm params 2.0 in
  Alcotest.(check bool) "in (0,1)" true (mid > 0.0 && mid < 1.0)

let test_crossing_time () =
  let ds = 0.9 in
  let sent_expires_at = 3000.0 and current_expires_at = 6000.0 in
  let now = 0.0 in
  let t =
    Beacon_policy.resend_crossing_time params ~ds ~now ~sent_expires_at ~current_expires_at
  in
  Alcotest.(check bool) "in the future" true (t > now);
  Alcotest.(check bool) "before sent expiry" true (t <= sent_expires_at);
  (* Just before the crossing the score is below the threshold; just
     after it is above. *)
  let score at =
    Beacon_policy.score_resend params ~ds ~sent_remaining:(sent_expires_at -. at)
      ~current_remaining:(current_expires_at -. at)
  in
  if t > 1.0 && t < sent_expires_at -. 1.0 then begin
    Alcotest.(check bool) "below before" true
      (score (t -. 1.0) < params.Beacon_policy.threshold +. 1e-6);
    Alcotest.(check bool) "above after" true
      (score (t +. 1.0) > params.Beacon_policy.threshold -. 1e-6)
  end

let test_crossing_never_when_same_instance () =
  let t =
    Beacon_policy.resend_crossing_time params ~ds:0.9 ~now:0.0 ~sent_expires_at:600.0
      ~current_expires_at:600.0
  in
  Alcotest.(check bool) "never crosses" true (t = infinity)

(* --- Diversity_state --- *)

let test_counters_gm_reused_link () =
  let st = Diversity_state.create ~n_as:10 in
  (* Link 5 is both a path link and the egress of each increment, so it
     counts twice per path: 14 after seven. The mean over links 5, 6 and
     7 is (15 * 1 * 1)^(1/3). *)
  for _ = 1 to 7 do
    Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 5 |] ~extra:5
  done;
  Alcotest.(check (float 1e-12)) "gm over a reused link" (15.0 ** (1.0 /. 3.0))
    (Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links:[| 5; 6 |]
       ~extra:7)

let test_diversity_state_counters () =
  let st = Diversity_state.create ~n_as:10 in
  Alcotest.(check (float 1e-9)) "empty table -> gm 1" 1.0
    (Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links:[| 5 |] ~extra:6);
  Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 5 |] ~extra:6;
  let gm = Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links:[| 5 |] ~extra:6 in
  Alcotest.(check (float 1e-9)) "both counters 1 -> gm 2" 2.0 gm;
  (* Other pairs are unaffected. *)
  Alcotest.(check (float 1e-9)) "pair isolation" 1.0
    (Diversity_state.counters_gm st ~origin:1 ~neighbor:3 ~links:[| 5 |] ~extra:6)

let find_sent st ~egress ~key =
  let info = Diversity_state.(sent_on (sent_row st ~key) ~egress) in
  if info == Diversity_state.no_sent then None else Some info

let test_diversity_state_sent () =
  (* Entries are keyed by (parent path key, egress): the parent is the
     stored PCB's key before the egress link is appended. *)
  let st = Diversity_state.create ~n_as:10 in
  let parent = Pcb.path_key [| 4 |] in
  Alcotest.(check bool) "absent" true (find_sent st ~egress:3 ~key:parent = None);
  let on3 =
    Diversity_state.record_sent st ~origin:1 ~neighbor:2 ~egress:3 ~key:parent
      ~links:[| 4; 3 |] ~ds:0.8 ~expires_at:600.0
  in
  ignore
    (Diversity_state.record_sent st ~origin:1 ~neighbor:2 ~egress:5 ~key:parent
       ~links:[| 4; 5 |] ~ds:0.6 ~expires_at:300.0);
  check Alcotest.int "one entry per egress" 2 (Diversity_state.sent_count st);
  Alcotest.(check bool) "not under the extended path's key" true
    (find_sent st ~egress:3 ~key:(Pcb.path_key [| 4; 3 |]) = None);
  (match find_sent st ~egress:3 ~key:parent with
  | None -> Alcotest.fail "should be present"
  | Some info ->
      Alcotest.(check bool) "record_sent returns the entry" true (info == on3);
      Alcotest.(check (float 1e-9)) "ds" 0.8 info.Diversity_state.ds;
      Diversity_state.refresh_sent info ~expires_at:900.0);
  (match find_sent st ~egress:3 ~key:parent with
  | None -> Alcotest.fail "still present after refresh"
  | Some info ->
      Alcotest.(check (float 1e-9)) "timer updated" 900.0
        info.Diversity_state.sent_expires_at);
  (match find_sent st ~egress:5 ~key:parent with
  | None -> Alcotest.fail "other egress present"
  | Some info ->
      Alcotest.(check (float 1e-9)) "other egress untouched" 300.0
        info.Diversity_state.sent_expires_at);
  Diversity_state.prune st ~now:600.0;
  check Alcotest.int "expired entry pruned" 1 (Diversity_state.sent_count st);
  Alcotest.(check bool) "pruned on its egress" true
    (find_sent st ~egress:5 ~key:parent = None);
  Alcotest.(check bool) "refreshed entry kept" true
    (find_sent st ~egress:3 ~key:parent <> None)

let test_diversity_state_sent_siblings () =
  (* Two egresses under one parent key, each counted in the Link History
     Table as the engine counts a dissemination. Refreshing one and
     pruning the other must decrement only the pruned path's counters,
     once, and leave the survivor findable. *)
  let st = Diversity_state.create ~n_as:10 in
  let parent = Pcb.path_key [| 4 |] in
  let send egress ~expires_at =
    Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 4 |] ~extra:egress;
    Diversity_state.record_sent st ~origin:1 ~neighbor:2 ~egress ~key:parent
      ~links:[| 4; egress |] ~ds:0.5 ~expires_at
  in
  let on3 = send 3 ~expires_at:600.0 in
  ignore (send 5 ~expires_at:600.0);
  Diversity_state.refresh_sent on3 ~expires_at:1200.0;
  Diversity_state.prune st ~now:600.0;
  let gm links extra =
    Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links ~extra
  in
  (* Link 4 drops from 2 to 1, link 5 from 1 to 0, link 3 stays at 1. *)
  Alcotest.(check (float 1e-12)) "shared link decremented once" 2.0 (gm [||] 4);
  Alcotest.(check (float 1e-12)) "pruned egress cleared" 1.0 (gm [||] 5);
  Alcotest.(check (float 1e-12)) "survivor's egress kept" 2.0 (gm [||] 3);
  check Alcotest.int "one entry left" 1 (Diversity_state.sent_count st);
  Alcotest.(check bool) "survivor findable" true
    (match find_sent st ~egress:3 ~key:parent with
    | Some info -> info == on3
    | None -> false);
  Alcotest.(check bool) "pruned sibling gone" true
    (find_sent st ~egress:5 ~key:parent = None);
  Diversity_state.prune st ~now:600.0;
  Alcotest.(check (float 1e-12)) "a second prune decrements nothing" 2.0
    (gm [||] 4)

let test_diversity_score_worked_example () =
  (* Hand-computed Eq. 1-2 (§4.2) on a five-link path plus the egress
     link: counters 0,0,2,2,8,8 give (1 + c) = 1,1,3,3,9,9, whose
     geometric mean is 729^(1/6) = 3. With
     gm_max = 4, ds = 1 - (3 - 1)/4 = 0.5, and a PCB aged 600 s of a
     21 600 s lifetime scores 0.5^(40 * 600 / 21600) = 2^(-10/9). *)
  let p = { params with Beacon_policy.alpha = 40.0; gm_max = 4.0 } in
  let st = Diversity_state.create ~n_as:10 in
  for _ = 1 to 2 do
    Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 3; 4; 5 |]
      ~extra:6
  done;
  for _ = 1 to 6 do
    Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 5 |] ~extra:6
  done;
  let links = [| 1; 2; 3; 4; 5 |] in
  let gm =
    Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links ~extra:6
  in
  Alcotest.(check (float 1e-12)) "geometric mean" 3.0 gm;
  let ds = Beacon_policy.diversity_of_gm p gm in
  Alcotest.(check (float 1e-12)) "link diversity" 0.5 ds;
  Alcotest.(check (float 1e-12)) "aged score" 0.4629373561436452
    (Beacon_policy.score_fresh p ~ds ~age:600.0 ~lifetime:21600.0)

let test_diversity_state_prune_decrements () =
  let st = Diversity_state.create ~n_as:10 in
  Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[||] ~extra:3;
  ignore
    (Diversity_state.record_sent st ~origin:1 ~neighbor:2 ~egress:3 ~key:"k"
       ~links:[| 3 |] ~ds:0.8 ~expires_at:100.0);
  Diversity_state.prune st ~now:200.0;
  check Alcotest.int "entry dropped" 0 (Diversity_state.sent_count st);
  Alcotest.(check (float 1e-9)) "counter decremented back to gm 1" 1.0
    (Diversity_state.counters_gm st ~origin:1 ~neighbor:2 ~links:[||] ~extra:3)

(* --- Dense counter view: oracle is counters_gm on the hash table --- *)

(* The view's geometric mean as the row kernel forms it: the path's log
   sum plus the egress link's log, over the link count. *)
let view_gm view ~links ~extra =
  let sum = [| nan |] and log_extra = [| nan |] in
  Diversity_state.view_sum_into view ~links sum 0;
  Diversity_state.view_logs_into view ~links:[| extra |] ~len:1 log_extra;
  exp ((sum.(0) +. log_extra.(0)) /. float_of_int (Array.length links + 1))

let view_agrees view st ~origin ~neighbor ~links ~extra =
  Int64.equal
    (Int64.bits_of_float (view_gm view ~links ~extra))
    (Int64.bits_of_float
       (Diversity_state.counters_gm st ~origin ~neighbor ~links ~extra))

type eval_step = Query of int array * int | Bump of int array * int

type view_op =
  | Increment of int * int array * int
  | Record_sent of int * int array * int * float
  | Prune_at of float
  | Evaluate of int * eval_step list

let show_links ls = String.concat "," (Array.to_list (Array.map string_of_int ls))

let show_view_op = function
  | Increment (p, ls, e) -> Printf.sprintf "increment pair%d [%s]+%d" p (show_links ls) e
  | Record_sent (p, ls, e, t) ->
      Printf.sprintf "record_sent pair%d [%s]+%d until %.0f" p (show_links ls) e t
  | Prune_at t -> Printf.sprintf "prune %.0f" t
  | Evaluate (p, steps) ->
      Printf.sprintf "evaluate pair%d: %s" p
        (String.concat "; "
           (List.map
              (function
                | Query (ls, e) -> Printf.sprintf "query [%s]+%d" (show_links ls) e
                | Bump (ls, e) -> Printf.sprintf "bump [%s]+%d" (show_links ls) e)
              steps))

let view_pairs = [| (1, 2); (1, 3); (4, 2) |]

let view_links = 8

let gen_view_op =
  QCheck.Gen.(
    let links = array_size (int_range 0 4) (int_bound (view_links - 1)) in
    let link = int_bound (view_links - 1) in
    let pair = int_bound (Array.length view_pairs - 1) in
    let step =
      frequency
        [
          (3, map2 (fun ls e -> Query (ls, e)) links link);
          (2, map2 (fun ls e -> Bump (ls, e)) links link);
        ]
    in
    frequency
      [
        (3, map3 (fun p ls e -> Increment (p, ls, e)) pair links link);
        ( 2,
          map
            (fun (p, ls, e, t) -> Record_sent (p, ls, e, float_of_int (100 * t)))
            (quad pair links link (int_bound 10)) );
        (1, map (fun t -> Prune_at (float_of_int (100 * t))) (int_bound 10));
        ( 3,
          map2
            (fun p steps -> Evaluate (p, steps))
            pair
            (list_size (int_range 1 6) step) );
      ])

let prop_view_matches_counters =
  QCheck.Test.make ~name:"dense counter view equals counters_mean bit for bit"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_view_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_view_op))
    (fun ops ->
      let st = Diversity_state.create ~n_as:10 in
      let view = Diversity_state.create_view ~num_links:view_links in
      let sent_id = ref 0 in
      List.for_all
        (function
          | Increment (p, links, extra) ->
              let origin, neighbor = view_pairs.(p) in
              Diversity_state.increment st ~origin ~neighbor ~links ~extra;
              true
          | Record_sent (p, links, egress, expires_at) ->
              (* As the engine does: count the path, then record it. *)
              let origin, neighbor = view_pairs.(p) in
              Diversity_state.increment st ~origin ~neighbor ~links ~extra:egress;
              incr sent_id;
              ignore
                (Diversity_state.record_sent st ~origin ~neighbor ~egress
                   ~key:(string_of_int !sent_id)
                   ~links:(Array.append links [| egress |])
                   ~ds:0.5 ~expires_at);
              true
          | Prune_at now ->
              Diversity_state.prune st ~now;
              true
          | Evaluate (p, steps) ->
              let origin, neighbor = view_pairs.(p) in
              Diversity_state.load_view view st ~origin ~neighbor;
              let agreed =
                List.for_all
                  (function
                    | Query (links, extra) ->
                        view_agrees view st ~origin ~neighbor ~links ~extra
                    | Bump (links, extra) ->
                        Diversity_state.view_increment view st ~origin ~neighbor
                          ~links ~extra;
                        true)
                  steps
              in
              Diversity_state.unload_view view st ~origin ~neighbor;
              agreed && Diversity_state.view_is_clear view)
        ops)

let test_view_beyond_log_table () =
  (* Counters past the precomputed log table fall back to the
     expression itself; the view still agrees bit for bit. *)
  let st = Diversity_state.create ~n_as:10 in
  for _ = 1 to 5000 do
    Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:[| 0 |] ~extra:1
  done;
  let view = Diversity_state.create_view ~num_links:3 in
  Diversity_state.load_view view st ~origin:1 ~neighbor:2;
  Alcotest.(check bool) "agrees" true
    (view_agrees view st ~origin:1 ~neighbor:2 ~links:[| 0; 2 |] ~extra:1);
  Diversity_state.unload_view view st ~origin:1 ~neighbor:2;
  Alcotest.(check bool) "cleared" true (Diversity_state.view_is_clear view)

(* --- Algorithm 1: Beacon_policy.evaluate against a full rescan --- *)

(* Algorithm 1 (§4.2) for one (origin, neighbor) evaluation, written
   from the Eq. 1-3 functions and the hash-table state alone: after
   every send every combination is scored again, through counters_gm
   (or the latency, egress link first), score_fresh and score_resend.
   Returns the sends as (parent path key, egress link), in order, and
   the earliest crossing time of a resend score at or below the
   threshold over every scan. *)
let reference_evaluate policy st ~origin ~neighbor ~now ~candidates ~egress =
  let p, latency =
    match policy with
    | Beacon_policy.Diversity p -> (p, None)
    | Beacon_policy.Latency_aware lp -> (lp.Beacon_policy.base, Some lp)
    | Beacon_policy.Baseline -> invalid_arg "reference_evaluate"
  in
  let threshold = p.Beacon_policy.threshold in
  let rows =
    Array.of_list
      (List.filter (fun path -> not (Pcb.contains_as path neighbor)) candidates)
  in
  let entry r j =
    Diversity_state.(sent_on (sent_row st ~key:rows.(r).Pcb.key) ~egress:egress.(j))
  in
  let quality r j =
    let links = rows.(r).Pcb.links in
    match latency with
    | Some lp ->
        let ms = lp.Beacon_policy.link_latency_ms in
        Beacon_policy.latency_quality lp
          ~total_ms:(Array.fold_left (fun acc l -> acc +. ms.(l)) ms.(egress.(j)) links)
    | None ->
        Beacon_policy.diversity_of_gm p
          (Diversity_state.counters_gm st ~origin ~neighbor ~links ~extra:egress.(j))
  in
  let next_eval = ref infinity in
  let score r j =
    let path = rows.(r) and e = entry r j in
    let sent_expires_at = e.Diversity_state.sent_expires_at in
    if sent_expires_at > now then begin
      let ds = e.Diversity_state.ds in
      let s =
        Beacon_policy.score_resend p ~ds ~sent_remaining:(sent_expires_at -. now)
          ~current_remaining:(max 0.0 (Pcb.expires_at path -. now))
      in
      if s <= threshold then begin
        let at =
          Beacon_policy.resend_crossing_time p ~ds ~now ~sent_expires_at
            ~current_expires_at:(Pcb.expires_at path)
        in
        if at < !next_eval then next_eval := at
      end;
      s
    end
    else
      Beacon_policy.score_fresh p ~ds:(quality r j)
        ~age:(now -. path.Pcb.timestamp)
        ~lifetime:path.Pcb.lifetime
  in
  (* The first maximum above the threshold, by strict [>]. *)
  let scan () =
    let best = ref None and best_score = ref 0.0 in
    for r = 0 to Array.length rows - 1 do
      for j = 0 to Array.length egress - 1 do
        let s = score r j in
        if s > threshold && s > !best_score then begin
          best := Some (r, j);
          best_score := s
        end
      done
    done;
    !best
  in
  let rec loop sends n =
    match scan () with
    | Some (r, j) when n < Beacon_policy.dissemination_limit ->
        let path = rows.(r) and e = entry r j in
        let expires_at = Pcb.expires_at path in
        if e.Diversity_state.sent_expires_at > now then
          Diversity_state.refresh_sent e ~expires_at
        else begin
          if latency = None then
            Diversity_state.increment st ~origin ~neighbor ~links:path.Pcb.links
              ~extra:egress.(j);
          ignore
            (Diversity_state.record_sent st ~origin ~neighbor ~egress:egress.(j)
               ~key:path.Pcb.key
               ~links:(Array.append path.Pcb.links [| egress.(j) |])
               ~ds:(quality r j) ~expires_at)
        end;
        loop ((path.Pcb.key, egress.(j)) :: sends) (n + 1)
    | _ -> List.rev sends
  in
  let sends = loop [] 0 in
  (sends, !next_eval)

type eval_case = {
  latency : bool;  (* Latency_aware instead of Diversity *)
  gm_max : float;
  latency_scale_ms : float;
  history : (int * int * int) list;  (* neighbor, link, counter *)
  paths : (int array * int * float * float) list;
      (* links, an on-path AS other than the origin (0 for none),
         timestamp, lifetime *)
  egress : int array;  (* neighbor 2's links; neighbor 3's are +8 *)
  entries : (int * int * int * float * float) list;
      (* neighbor, path, egress column, ds, sent expiry *)
  evals : (int * float) list;  (* neighbor, now *)
}

let eval_links = 16

let eval_neighbors = [| 2; 3 |]

let show_eval_case c =
  Printf.sprintf
    "latency=%b gm_max=%g scale=%g\nhistory=%s\npaths=%s\negress=[%s]\nentries=%s\nevals=%s"
    c.latency c.gm_max c.latency_scale_ms
    (String.concat " "
       (List.map (fun (nb, l, n) -> Printf.sprintf "n%d:%d:%d" nb l n) c.history))
    (String.concat " "
       (List.map
          (fun (ls, via, ts, lt) ->
            Printf.sprintf "[%s]via%d@%g/%g" (show_links ls) via ts lt)
          c.paths))
    (show_links c.egress)
    (String.concat " "
       (List.map
          (fun (nb, r, j, ds, e) -> Printf.sprintf "n%d:%d.%d(%g,%g)" nb r j ds e)
          c.entries))
    (String.concat " "
       (List.map (fun (nb, now) -> Printf.sprintf "n%d@%g" nb now) c.evals))

let gen_eval_case =
  QCheck.Gen.(
    let links = array_size (int_range 0 4) (int_bound 11) in
    let nb = int_bound 1 in
    let count =
      (* Past the 4096-entry log table too. *)
      frequency [ (4, int_bound 6); (1, int_range 4090 5000) ]
    in
    let time = map float_of_int (int_bound 2000) in
    let lifetime =
      oneof
        [
          oneofl [ -100.0; 0.0; 600.0; 21600.0 ];
          map float_of_int (int_range 1 3000);
        ]
    in
    let ds = map (fun n -> float_of_int n /. 16.0) (int_bound 16) in
    let path tie =
      let ts, lt = if tie then (return 400.0, return 21600.0) else (time, lifetime) in
      quad links (frequency [ (4, return 0); (1, int_range 2 3) ]) ts lt
    in
    let distinct_egress =
      map
        (fun ls -> Array.of_list (List.sort_uniq compare ls))
        (list_size (int_range 1 4) (int_bound 7))
    in
    let eval_time = map (fun n -> 1000.0 +. (300.0 *. float_of_int n)) (int_bound 8) in
    bool >>= fun latency ->
    oneofl [ -1.0; 0.25; 4.0 ] >>= fun gm_max ->
    oneofl [ 0.0; 40.0 ] >>= fun latency_scale_ms ->
    (* Ties: one timestamp and lifetime for every path, so paths with
       equal counters score equal. *)
    bool >>= fun tie ->
    list_size (int_bound 6) (triple nb (int_bound (eval_links - 1)) count)
    >>= fun history ->
    list_size (int_range 1 6) (path tie) >>= fun paths ->
    distinct_egress >>= fun egress ->
    list_size (int_bound 8)
      (map
         (fun ((nb, r, j), (ds, e)) -> (nb, r, j, ds, e))
         (pair (triple nb (int_bound 5) (int_bound 3)) (pair ds time)))
    >>= fun entries ->
    list_size (int_range 1 3) (pair nb eval_time) >>= fun evals ->
    let evals = List.sort (fun (_, a) (_, b) -> compare a b) evals in
    return
      { latency; gm_max; latency_scale_ms; history; paths; egress; entries; evals })

let prop_evaluate_matches_reference =
  QCheck.Test.make ~name:"evaluate equals a full-rescan Algorithm 1" ~count:1000
    (QCheck.make ~print:show_eval_case gen_eval_case)
    (fun c ->
      let origin = 1 in
      let p = { Beacon_policy.default_div_params with Beacon_policy.gm_max = c.gm_max } in
      (* Not exact in binary, so the order of the additions shows. *)
      let latency_ms =
        Array.init eval_links (fun l -> (0.1 *. float_of_int (l + 1)) +. (1.0 /. 3.0))
      in
      let policy =
        if c.latency then
          Beacon_policy.Latency_aware
            {
              Beacon_policy.base = p;
              link_latency_ms = latency_ms;
              latency_scale_ms = c.latency_scale_ms;
            }
        else Beacon_policy.Diversity p
      in
      let egress_of nb = Array.map (fun l -> l + (8 * nb)) c.egress in
      (* Distinct parent keys, as a beacon store holds them. *)
      let paths =
        List.fold_left
          (fun acc (links, via, ts, lifetime) ->
            let pcb =
              Array.fold_left
                (fun (pcb, i) l ->
                  let asn = if i = 0 then via else 0 in
                  (Pcb.extend pcb ~asn ~ingress:0 ~egress:0 ~link:l ~peers:[||], i + 1))
                (Pcb.origin_pcb ~origin:0 ~now:ts ~lifetime, 0)
                links
              |> fst
            in
            if List.exists (fun (q : Pcb.t) -> q.Pcb.key = pcb.Pcb.key) acc then acc
            else acc @ [ pcb ])
          [] c.paths
      in
      let npaths = List.length paths in
      (* Both sides start from equal states. Entries leave the Link
         History Table alone. *)
      let state () =
        let st = Diversity_state.create ~n_as:4 in
        List.iter
          (fun (nb, l, n) ->
            Diversity_state.increment st ~origin ~neighbor:eval_neighbors.(nb)
              ~links:(Array.make n l) ~extra:l)
          c.history;
        List.iter
          (fun (nb, r, j, ds, expires_at) ->
            let path = List.nth paths (r mod npaths) in
            let egress = egress_of nb in
            let egress = egress.(j mod Array.length egress) in
            ignore
              (Diversity_state.record_sent st ~origin ~neighbor:eval_neighbors.(nb)
                 ~egress ~key:path.Pcb.key ~links:[||] ~ds ~expires_at))
          c.entries;
        st
      in
      let st = state () and ref_st = state () in
      let scratch = Beacon_policy.create_scratch ~num_links:eval_links in
      let bits = Int64.bits_of_float in
      let same a b = Int64.equal (bits a) (bits b) in
      let entries_agree () =
        List.for_all
          (fun (path : Pcb.t) ->
            Array.for_all
              (fun l ->
                let a = Diversity_state.(sent_on (sent_row st ~key:path.Pcb.key) ~egress:l)
                and b =
                  Diversity_state.(sent_on (sent_row ref_st ~key:path.Pcb.key) ~egress:l)
                in
                same a.Diversity_state.ds b.Diversity_state.ds
                && same a.Diversity_state.sent_expires_at b.Diversity_state.sent_expires_at)
              (Array.init eval_links Fun.id))
          paths
        && Diversity_state.sent_count st = Diversity_state.sent_count ref_st
      in
      let history_agrees () =
        Array.for_all
          (fun neighbor ->
            Array.for_all
              (fun l ->
                let gm st = Diversity_state.counters_gm st ~origin ~neighbor ~links:[||] ~extra:l in
                same (gm st) (gm ref_st))
              (Array.init eval_links Fun.id))
          eval_neighbors
      in
      List.for_all
        (fun (nb, now) ->
          let neighbor = eval_neighbors.(nb) and egress = egress_of nb in
          let sent = ref [] in
          Beacon_policy.evaluate policy scratch st ~origin ~neighbor ~now
            ~store_last_mod:now
            ~candidates:(fun _ -> paths)
            ~egress
            ~send:(fun (path : Pcb.t) j -> sent := (path.Pcb.key, egress.(j)) :: !sent);
          let ref_sent, ref_next =
            reference_evaluate policy ref_st ~origin ~neighbor ~now ~candidates:paths
              ~egress
          in
          (* The pair's next evaluation is exactly [ref_next]: due then
             and not one float earlier. *)
          let due at =
            Diversity_state.should_evaluate st ~origin ~neighbor
              ~store_last_mod:neg_infinity ~now:at
          in
          let next_agrees =
            if ref_next = infinity then not (due max_float)
            else due ref_next && not (due (Float.pred ref_next))
          in
          List.rev !sent = ref_sent && next_agrees && entries_agree ()
          && history_agrees ())
        c.evals)

let test_evaluate_edges () =
  (* The clamps and the lifetime guard, by hand, through the one-path,
     one-link evaluation: an idle link gives gm 1; with gm_max < 0 the
     diversity clamps to 1, with a tiny gm_max and a busy link to 0; a
     non-positive lifetime scores 0 before any power is taken. A path is
     sent iff it scores above the threshold, and its entry records the
     diversity after the send. *)
  let sent_ds ~gm_max ~lifetime ~link =
    let st = Diversity_state.create ~n_as:4 in
    Diversity_state.increment st ~origin:1 ~neighbor:2 ~links:(Array.make 5000 0)
      ~extra:0;
    let p = { params with Beacon_policy.gm_max } in
    let path = Pcb.origin_pcb ~origin:0 ~now:400.0 ~lifetime in
    let sent = ref 0 in
    Beacon_policy.evaluate (Beacon_policy.Diversity p)
      (Beacon_policy.create_scratch ~num_links:2)
      st ~origin:1 ~neighbor:2 ~now:1000.0 ~store_last_mod:1000.0
      ~candidates:(fun _ -> [ path ])
      ~egress:[| link |]
      ~send:(fun _ _ -> incr sent);
    let e = Diversity_state.(sent_on (sent_row st ~key:path.Pcb.key) ~egress:link) in
    (!sent, if e == Diversity_state.no_sent then None else Some e.Diversity_state.ds)
  in
  let sent = Alcotest.(pair int (option (float 0.0))) in
  (* Counted once on the idle link: gm 2, so ds 1 - 1/4, and the
     resend then scores below the threshold. *)
  check sent "idle link, ds 1" (1, Some 0.75)
    (sent_ds ~gm_max:4.0 ~lifetime:21600.0 ~link:1);
  (* With ds 1 the resend scores 1 too: re-sent up to the limit. *)
  check sent "gm_max < 0 clamps ds to 1" (Beacon_policy.dissemination_limit, Some 1.0)
    (sent_ds ~gm_max:(-1.0) ~lifetime:21600.0 ~link:0);
  check sent "busy link clamps ds to 0" (0, None)
    (sent_ds ~gm_max:0.25 ~lifetime:21600.0 ~link:0);
  check sent "zero lifetime" (0, None) (sent_ds ~gm_max:4.0 ~lifetime:0.0 ~link:1);
  check sent "negative lifetime" (0, None)
    (sent_ds ~gm_max:(-1.0) ~lifetime:(-5.0) ~link:1)

let test_diversity_state_gating () =
  let st = Diversity_state.create ~n_as:10 in
  Alcotest.(check bool) "new pair evaluates" true
    (Diversity_state.should_evaluate st ~origin:1 ~neighbor:2 ~store_last_mod:0.0 ~now:0.0);
  Diversity_state.begin_evaluation st ~origin:1 ~neighbor:2 ~now:0.0;
  Alcotest.(check bool) "quiet pair skipped" false
    (Diversity_state.should_evaluate st ~origin:1 ~neighbor:2 ~store_last_mod:(-1.0) ~now:1.0);
  Alcotest.(check bool) "store change triggers" true
    (Diversity_state.should_evaluate st ~origin:1 ~neighbor:2 ~store_last_mod:0.5 ~now:1.0);
  Diversity_state.propose_next_eval st ~origin:1 ~neighbor:2 10.0;
  Alcotest.(check bool) "before next_eval skipped" false
    (Diversity_state.should_evaluate st ~origin:1 ~neighbor:2 ~store_last_mod:(-1.0) ~now:9.0);
  Alcotest.(check bool) "at next_eval triggers" true
    (Diversity_state.should_evaluate st ~origin:1 ~neighbor:2 ~store_last_mod:(-1.0) ~now:10.0)

(* --- Beaconing engine --- *)

(* A connected core multigraph of [n] ASes in three ISDs: a random
   spanning tree plus the [extra] edges (self-links skipped), so some
   links are parallel. *)
let random_core ~n ~extra ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let b = Graph.builder () in
  for i = 0 to n - 1 do
    ignore (Graph.add_as b ~core:true (Id.ia ((i mod 3) + 1) (i + 1)))
  done;
  for i = 1 to n - 1 do
    Graph.add_link b ~rel:Graph.Core (Rng.int rng i) i
  done;
  List.iter
    (fun (x, y) -> if x <> y then Graph.add_link b ~rel:Graph.Core x y)
    extra;
  Graph.freeze b

let cfg_short =
  {
    Beaconing.default_config with
    Beaconing.duration = 600.0 *. 8.0;
    Beaconing.lifetime = 600.0 *. 12.0;
  }

let path_is_consistent g (p : Pcb.t) holder =
  (* Consecutive links must chain through the hop ASes to the holder. *)
  let hops = p.Pcb.hops in
  let ok = ref true in
  Array.iteri
    (fun i (h : Pcb.hop) ->
      let lk = Graph.link g h.Pcb.link in
      let next = if i + 1 < Array.length hops then hops.(i + 1).Pcb.asn else holder in
      let connects =
        (lk.Graph.a = h.Pcb.asn && lk.Graph.b = next)
        || (lk.Graph.b = h.Pcb.asn && lk.Graph.a = next)
      in
      if not connects then ok := false)
    hops;
  !ok && (Array.length hops = 0 || hops.(0).Pcb.asn = p.Pcb.origin)

let test_baseline_propagates () =
  let g = chain 4 in
  let out = Beaconing.run g cfg_short in
  (* Every AS must know a path to every origin. *)
  for v = 0 to 3 do
    for o = 0 to 3 do
      if v <> o then begin
        let paths =
          Beacon_store.paths out.Beaconing.stores.(v)
            ~now:(cfg_short.Beaconing.duration -. 1.0) ~origin:o
        in
        Alcotest.(check bool) (Printf.sprintf "AS %d knows origin %d" v o) true
          (paths <> []);
        List.iter
          (fun p ->
            Alcotest.(check bool) "path consistent with topology" true
              (path_is_consistent g p v);
            Alcotest.(check bool) "loop free (holder not on path)" true
              (not (Pcb.contains_as p v)))
          paths
      end
    done
  done

let test_baseline_shortest_on_chain () =
  let g = chain 4 in
  let out = Beaconing.run g cfg_short in
  let paths =
    Beacon_store.paths out.Beaconing.stores.(3)
      ~now:(cfg_short.Beaconing.duration -. 1.0) ~origin:0
  in
  (* Only one simple path exists: 0-1-2-3, three hops recorded. *)
  check Alcotest.int "exactly one path" 1 (List.length paths);
  check Alcotest.int "three AS entries" 3 (Pcb.num_hops (List.hd paths))

let test_diversity_propagates () =
  let g = triangle () in
  let cfg =
    { cfg_short with Beaconing.algorithm = Beacon_policy.Diversity Beacon_policy.default_div_params }
  in
  let out = Beaconing.run g cfg in
  for v = 0 to 2 do
    for o = 0 to 2 do
      if v <> o then
        Alcotest.(check bool) "knows origin" true
          (Beacon_store.paths out.Beaconing.stores.(v)
             ~now:(cfg.Beaconing.duration -. 1.0) ~origin:o
          <> [])
    done
  done

let test_diversity_cheaper_than_baseline () =
  let g = triangle () in
  let base = Beaconing.run g cfg_short in
  let div =
    Beaconing.run g
      { cfg_short with Beaconing.algorithm = Beacon_policy.Diversity Beacon_policy.default_div_params }
  in
  Alcotest.(check bool) "diversity sends fewer PCBs" true
    (div.Beaconing.stats.Beaconing.total_pcbs
    < base.Beaconing.stats.Beaconing.total_pcbs)

let test_diversity_finds_parallel_links () =
  (* The triangle has two parallel links 0===1; diversity must
     disseminate paths over both. *)
  let g = triangle () in
  let cfg =
    { cfg_short with Beaconing.algorithm = Beacon_policy.Diversity Beacon_policy.default_div_params }
  in
  let out = Beaconing.run g cfg in
  let paths =
    Beacon_store.paths out.Beaconing.stores.(1)
      ~now:(cfg.Beaconing.duration -. 1.0) ~origin:0
  in
  let direct = List.map (fun (l : Graph.link) -> l.Graph.link_id) (Graph.links_between g 0 1) in
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "parallel link %d used" l) true
        (List.exists (fun (p : Pcb.t) -> Array.mem l p.Pcb.links) paths))
    direct

let test_dissemination_limit_per_iface () =
  let g = triangle () in
  let out = Beaconing.run g cfg_short in
  let rounds = out.Beaconing.stats.Beaconing.rounds in
  let origins = 3 in
  Array.iter
    (fun count ->
      Alcotest.(check bool) "per-interface cap" true
        (count <= rounds * origins * Beacon_policy.dissemination_limit))
    out.Beaconing.stats.Beaconing.pcbs_on_iface

let test_crypto_verification () =
  let g = triangle () in
  let cfg = { cfg_short with Beaconing.verify_crypto = true } in
  let out = Beaconing.run g cfg in
  check Alcotest.int "no crypto failures" 0 out.Beaconing.stats.Beaconing.crypto_failures;
  (* Stores still fill. *)
  Alcotest.(check bool) "paths stored" true
    (Beacon_store.total out.Beaconing.stores.(2) > 0);
  (* The size the byte accounting charges per signature is the size the
     engine actually signs with: one signature per AS entry, each
     Wire.signature_bytes long. *)
  let signed = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun (p : Pcb.t) ->
          check Alcotest.int "one signature per AS entry"
            (Array.length p.Pcb.hops)
            (List.length p.Pcb.signatures);
          List.iter
            (fun sg ->
              check Alcotest.int "signature size" Wire.signature_bytes
                (String.length sg);
              incr signed)
            p.Pcb.signatures)
        (Beacon_store.all_paths s ~now:cfg.Beaconing.duration))
    out.Beaconing.stores;
  Alcotest.(check bool) "signatures checked" true (!signed > 0)

(* With crypto on, the sender builds and signs every extension and the
   receiver verifies it before inserting it; with crypto off, only the
   extensions a store keeps are built. Both must choose the same
   paths: the same accounting and the same (origin, key, timestamp)
   entries in every store, under a link that is down for rounds 2-4,
   with storage limit 2 so full slots evict. *)
let test_crypto_same_paths () =
  let agree name g ~down =
    let run verify_crypto =
      let cfg =
        {
          cfg_short with
          Beaconing.storage_limit = 2;
          Beaconing.verify_crypto;
        }
      in
      let e = Beaconing.engine g cfg in
      for round = 0 to (Beaconing.engine_stats e).Beaconing.rounds - 1 do
        Beaconing.engine_round e ~round ~link_up:(fun l ->
            l <> down || round < 2 || round > 4)
      done;
      let now = cfg.Beaconing.duration -. cfg.Beaconing.interval in
      ( Beaconing.engine_stats e,
        Array.map
          (fun s ->
            List.map
              (fun (p : Pcb.t) -> (p.Pcb.origin, p.Pcb.key, p.Pcb.timestamp))
              (Beacon_store.all_paths s ~now))
          (Beaconing.engine_stores e) )
    in
    let signed, signed_paths = run true and plain, plain_paths = run false in
    check Alcotest.int (name ^ ": no crypto failures") 0
      signed.Beaconing.crypto_failures;
    check Alcotest.(array int) (name ^ ": pcbs_on_iface")
      plain.Beaconing.pcbs_on_iface signed.Beaconing.pcbs_on_iface;
    check Alcotest.(array (float 0.0)) (name ^ ": bytes_on_iface")
      plain.Beaconing.bytes_on_iface signed.Beaconing.bytes_on_iface;
    Alcotest.(check bool) (name ^ ": stores hold paths") true
      (Array.exists (fun ps -> ps <> []) plain_paths);
    check
      Alcotest.(array (list (triple int string (float 0.0))))
      (name ^ ": stored paths") plain_paths signed_paths
  in
  agree "triangle" (triangle ()) ~down:0;
  agree "random multigraph"
    (random_core ~n:6 ~extra:[ (0, 1); (0, 1); (2, 5); (3, 4); (1, 5) ] ~seed:7)
    ~down:1

let test_storage_limit_respected () =
  let g = triangle () in
  let cfg = { cfg_short with Beaconing.storage_limit = 2 } in
  let out = Beaconing.run g cfg in
  for v = 0 to 2 do
    List.iter
      (fun o ->
        Alcotest.(check bool) "within storage limit" true
          (Beacon_store.count out.Beaconing.stores.(v) ~origin:o <= 2))
      (Beacon_store.origins out.Beaconing.stores.(v))
  done

let test_intra_isd_direction () =
  (* core 0 -> customer 1 -> customer 2; a PCB must never flow upward. *)
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let a1 = Graph.add_as b (Id.ia 1 2) in
  let a2 = Graph.add_as b (Id.ia 1 3) in
  Graph.add_link b ~rel:Graph.Provider_customer a0 a1;
  Graph.add_link b ~rel:Graph.Provider_customer a1 a2;
  let g = Graph.freeze b in
  let cfg = { cfg_short with Beaconing.scope = Beaconing.Intra_isd } in
  let out = Beaconing.run g cfg in
  let now = cfg.Beaconing.duration -. 1.0 in
  Alcotest.(check bool) "leaf knows core" true
    (Beacon_store.paths out.Beaconing.stores.(a2) ~now ~origin:a0 <> []);
  (* The core AS never receives anything. *)
  check Alcotest.int "core store empty" 0 (Beacon_store.total out.Beaconing.stores.(a0));
  (* Upward interfaces carried no PCBs: only 2 directed interfaces used. *)
  let used =
    Array.fold_left
      (fun acc c -> if c > 0 then acc + 1 else acc)
      0 out.Beaconing.stats.Beaconing.pcbs_on_iface
  in
  check Alcotest.int "only downward directions used" 2 used

let test_intra_isd_carries_peering () =
  (* 0 core; 1, 2 customers of 0; 3 customer of 1; 1--2 peering.
     The PCB stored at 3 carries 1's AS entry, which must advertise
     1's peering link (§2.2). *)
  let b = Graph.builder () in
  let a0 = Graph.add_as b ~core:true (Id.ia 1 1) in
  let a1 = Graph.add_as b (Id.ia 1 2) in
  let a2 = Graph.add_as b (Id.ia 1 3) in
  let a3 = Graph.add_as b (Id.ia 1 4) in
  Graph.add_link b ~rel:Graph.Provider_customer a0 a1;
  Graph.add_link b ~rel:Graph.Provider_customer a0 a2;
  Graph.add_link b ~rel:Graph.Peering a1 a2;
  Graph.add_link b ~rel:Graph.Provider_customer a1 a3;
  let g = Graph.freeze b in
  let peer_link =
    (List.hd (Graph.links_between g a1 a2)).Graph.link_id
  in
  let cfg = { cfg_short with Beaconing.scope = Beaconing.Intra_isd } in
  let out = Beaconing.run g cfg in
  let now = cfg.Beaconing.duration -. 1.0 in
  match Beacon_store.paths out.Beaconing.stores.(a3) ~now ~origin:a0 with
  | [] -> Alcotest.fail "leaf must have a path"
  | p :: _ ->
      let hop_of_a1 =
        Array.to_list p.Pcb.hops |> List.find (fun (h : Pcb.hop) -> h.Pcb.asn = a1)
      in
      Alcotest.(check bool) "AS 1 advertises its peering link" true
        (Array.exists (fun l -> l = peer_link) hop_of_a1.Pcb.peers)

let prop_beaconing_invariants =
  (* Random connected multigraphs: spanning tree + extra random edges,
     some parallel. Invariants checked for both algorithms: stored
     paths are loop-free and consistent with the topology, storage
     limits hold, byte accounting balances. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 4 8 in
      let* extra = list_size (int_range 0 6) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      let* seed = int_bound 10_000 in
      return (n, extra, seed))
  in
  QCheck.Test.make ~name:"beaconing invariants on random core graphs" ~count:15
    (QCheck.make gen)
    (fun (n, extra, seed) ->
      let g = random_core ~n ~extra ~seed in
      let check_outcome (out : Beaconing.outcome) =
        let now = out.Beaconing.config.Beaconing.duration -. 1.0 in
        let ok = ref true in
        for v = 0 to n - 1 do
          List.iter
            (fun o ->
              if Beacon_store.count out.Beaconing.stores.(v) ~origin:o > 4 then
                ok := false;
              List.iter
                (fun p ->
                  if Pcb.contains_as p v then ok := false;
                  if not (path_is_consistent g p v) then ok := false)
                (Beacon_store.paths out.Beaconing.stores.(v) ~now ~origin:o))
            (Beacon_store.origins out.Beaconing.stores.(v))
        done;
        let sent = Array.fold_left ( +. ) 0.0 (Beaconing.sent_bytes_by_as out) in
        let recv = Array.fold_left ( +. ) 0.0 (Beaconing.received_bytes_by_as out) in
        if abs_float (sent -. recv) > 1e-6 then ok := false;
        if abs_float (sent -. out.Beaconing.stats.Beaconing.total_bytes) > 1e-6 then
          ok := false;
        !ok
      in
      let cfg =
        {
          Beaconing.default_config with
          Beaconing.duration = 600.0 *. 6.0;
          Beaconing.storage_limit = 4;
        }
      in
      check_outcome (Beaconing.run g cfg)
      && check_outcome
           (Beaconing.run g
              {
                cfg with
                Beaconing.algorithm =
                  Beacon_policy.Diversity Beacon_policy.default_div_params;
              }))

let test_rounds_count () =
  let g = triangle () in
  let out = Beaconing.run g cfg_short in
  check Alcotest.int "rounds" 8 out.Beaconing.stats.Beaconing.rounds

let test_received_sent_balance () =
  let g = triangle () in
  let out = Beaconing.run g cfg_short in
  let sent = Array.fold_left ( +. ) 0.0 (Beaconing.sent_bytes_by_as out) in
  let recv = Array.fold_left ( +. ) 0.0 (Beaconing.received_bytes_by_as out) in
  Alcotest.(check (float 1e-6)) "conservation" sent recv;
  Alcotest.(check (float 1e-6)) "matches total" out.Beaconing.stats.Beaconing.total_bytes sent

(* --- Golden beaconing outcomes ---

   Baseline, diversity (geometric and arithmetic mean) and
   latency-aware beaconing on the tiny fig5 core for 3 rounds (enough
   to fill store slots and exercise eviction). The digests come from the straightforward full-scan
   eviction and full share-test re-scoring, so any change in a
   selection, a store's content or the per-interface accounting shows
   up here. *)

let golden_rounds = 3

let iface_digest (stats : Beaconing.stats) =
  let b = Buffer.create 4096 in
  Array.iter (fun c -> Printf.bprintf b "%d\n" c) stats.Beaconing.pcbs_on_iface;
  Sha256.hex (Buffer.contents b)

(* Every store's full content (as [Beacon_store.write] lays it out), in
   AS order, PCBs in wire encoding. *)
let stores_digest stores =
  let b = Buffer.create 65536 in
  Array.iteri
    (fun i s ->
      let r = Snapshot.reader (store_bytes s) in
      Printf.bprintf b "store %d limit %d\n" i (Snapshot.r_int r);
      let origins =
        Snapshot.r_list r (fun r ->
            let origin = Snapshot.r_int r in
            let last_modified = Snapshot.r_f64 r in
            (origin, last_modified, Snapshot.r_list r Snapshot.r_str))
      in
      List.iter
        (fun (origin, last_modified, pcbs) ->
          Printf.bprintf b "origin %d %h %d\n" origin last_modified (List.length pcbs);
          List.iter (Buffer.add_string b) pcbs)
        origins)
    stores;
  Sha256.hex (Buffer.contents b)

(* name, total_pcbs, total_bytes (%h), pcbs_on_iface digest, stores digest *)
let golden_outcomes =
  [
    ( "baseline",
      495493,
      "0x1.8e5888p+27",
      "df61ece49f2098396733de50314aca31b1469f68c6610b18e3dce84da67f1f0d",
      "f6b58f6f3975514591fb02317b8fa87cdf815512e7207a8e98d5a3c0192d751f" );
    ( "diversity",
      85681,
      "0x1.20df5p+25",
      "c461d50c94be85d00d7f4c04bcdea815f08864c243710a2adc1bc69b76d17de7",
      "158fffd5382d6eee157d40ef7c0c2e7f03564b0a21d8ab422b8953b74fed422b" );
    ( "latency",
      83206,
      "0x1.0b84cp+25",
      "04d056f6c2e7dea02adf28b34852762666f7e5c8d42d4b02163ec1c38b0d8063",
      "2eccf3dd0c3b6bbf504d9725e9fe8d68d406580c2db96e18b19c0595e4e50c62" );
  ]

let test_golden_beaconing () =
  let prepared = Exp_common.prepare Exp_common.Tiny in
  let core = prepared.Exp_common.core in
  let weights = Geo.latency_table core in
  let base =
    {
      Exp_common.beacon_config with
      Beaconing.duration =
        Exp_common.beacon_config.Beaconing.interval *. float_of_int golden_rounds;
    }
  in
  let algorithms =
    [
      ("baseline", Beacon_policy.Baseline);
      ("diversity", Beacon_policy.Diversity Beacon_policy.default_div_params);
      ( "latency",
        Beacon_policy.Latency_aware
          {
            Beacon_policy.base = Beacon_policy.default_div_params;
            link_latency_ms = weights;
            latency_scale_ms = 4.0 *. Stats.mean weights *. 8.0;
          } );
    ]
  in
  List.iter2
    (fun (name, algorithm) (gname, pcbs, bytes, iface, stores) ->
      check Alcotest.string "golden order" gname name;
      let out = Beaconing.run core { base with Beaconing.algorithm } in
      let stats = out.Beaconing.stats in
      check Alcotest.int (name ^ " total_pcbs") pcbs stats.Beaconing.total_pcbs;
      check Alcotest.string (name ^ " total_bytes") bytes
        (Printf.sprintf "%h" stats.Beaconing.total_bytes);
      check Alcotest.string (name ^ " pcbs_on_iface") iface (iface_digest stats);
      check Alcotest.string (name ^ " stores") stores
        (stores_digest out.Beaconing.stores))
    algorithms golden_outcomes

let suite =
  [
    ("pcb origin", `Quick, test_pcb_origin);
    ("pcb extend", `Quick, test_pcb_extend);
    ("pcb wire bytes", `Quick, test_pcb_wire_bytes);
    ("store insert", `Quick, test_store_insert);
    ("store refresh", `Quick, test_store_refresh);
    ("store limit & eviction", `Quick, test_store_limit_and_eviction);
    ("store expired rejected", `Quick, test_store_expired_rejected);
    ("store paths sorted", `Quick, test_store_paths_sorted);
    ("store prune", `Quick, test_store_prune);
    ("store last modified", `Quick, test_store_last_modified);
    QCheck_alcotest.to_alcotest prop_store_limit;
    QCheck_alcotest.to_alcotest prop_store_matches_reference;
    QCheck_alcotest.to_alcotest prop_offer_equals_extend_insert;
    QCheck_alcotest.to_alcotest prop_compare_extension_key;
    ("score fresh age zero", `Quick, test_score_fresh_age_zero);
    ("score fresh decreasing in age", `Quick, test_score_fresh_decreasing_in_age);
    ("score fresh increasing in ds", `Quick, test_score_fresh_increasing_in_ds);
    ("score resend suppression", `Quick, test_score_resend_suppression);
    ("score resend refresh", `Quick, test_score_resend_refresh);
    ("score resend monotone", `Quick, test_score_resend_monotone);
    ("diversity of gm", `Quick, test_diversity_of_gm);
    ("crossing time", `Quick, test_crossing_time);
    ("crossing never for same instance", `Quick, test_crossing_never_when_same_instance);
    ("counters gm of a reused link", `Quick, test_counters_gm_reused_link);
    ("diversity state counters", `Quick, test_diversity_state_counters);
    ( "diversity score worked example",
      `Quick,
      test_diversity_score_worked_example );
    ("diversity state sent list", `Quick, test_diversity_state_sent);
    ( "diversity state sent list sibling egresses",
      `Quick,
      test_diversity_state_sent_siblings );
    ("diversity state prune decrements", `Quick, test_diversity_state_prune_decrements);
    ("diversity state gating", `Quick, test_diversity_state_gating);
    QCheck_alcotest.to_alcotest prop_view_matches_counters;
    ("dense view beyond the log table", `Quick, test_view_beyond_log_table);
    QCheck_alcotest.to_alcotest prop_evaluate_matches_reference;
    ("evaluate edges", `Quick, test_evaluate_edges);
    ("baseline propagates", `Quick, test_baseline_propagates);
    ("baseline shortest on chain", `Quick, test_baseline_shortest_on_chain);
    ("diversity propagates", `Quick, test_diversity_propagates);
    ("diversity cheaper than baseline", `Quick, test_diversity_cheaper_than_baseline);
    ("diversity finds parallel links", `Quick, test_diversity_finds_parallel_links);
    ("dissemination limit per iface", `Quick, test_dissemination_limit_per_iface);
    ("crypto verification", `Quick, test_crypto_verification);
    ("crypto on and off choose the same paths", `Quick, test_crypto_same_paths);
    ("storage limit respected", `Quick, test_storage_limit_respected);
    ("intra-ISD direction", `Quick, test_intra_isd_direction);
    ("intra-ISD peering advertisement", `Quick, test_intra_isd_carries_peering);
    QCheck_alcotest.to_alcotest prop_beaconing_invariants;
    ("rounds count", `Quick, test_rounds_count);
    ("received/sent balance", `Quick, test_received_sent_balance);
    ("golden beaconing outcomes (tiny core)", `Quick, test_golden_beaconing);
  ]
