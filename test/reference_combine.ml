(* The eager path combiner as it stood before combination became lazy:
   every combination is built, deduplicated and sorted by AS-hop count
   ([reference_candidates]), then cut to the 64 shortest
   ([reference_combine]). Kept verbatim, but for that split, as the
   oracle for the lazy [Seg_combine.combine]; do not optimise it. *)

open Fwd_path

let traverse_down (s : Segment.t) =
  Array.map
    (fun (hf : Segment.hop_field) ->
      {
        as_idx = hf.Segment.as_idx;
        in_if = hf.Segment.ingress;
        out_if = hf.Segment.egress;
        in_link = hf.Segment.link_in;
        out_link = hf.Segment.link_out;
        proofs = [ hf ];
      })
    s.Segment.hops

let traverse_up (s : Segment.t) =
  let n = Array.length s.Segment.hops in
  Array.init n (fun i ->
      let hf = s.Segment.hops.(n - 1 - i) in
      {
        as_idx = hf.Segment.as_idx;
        in_if = hf.Segment.egress;
        out_if = hf.Segment.ingress;
        in_link = hf.Segment.link_out;
        out_link = hf.Segment.link_in;
        proofs = [ hf ];
      })

(* Join two traversals sharing their boundary AS: the joint crossing
   enters with the first segment's hop field and leaves with the
   second's, carrying both proofs (as SCION packets do). *)
let join a b =
  let la = Array.length a in
  if la = 0 || Array.length b = 0 then invalid_arg "Seg_combine.join: empty traversal";
  let last = a.(la - 1) and first = b.(0) in
  if last.as_idx <> first.as_idx then
    invalid_arg "Seg_combine.join: traversals do not share a boundary AS";
  let joint =
    {
      as_idx = last.as_idx;
      in_if = last.in_if;
      out_if = first.out_if;
      in_link = last.in_link;
      out_link = first.out_link;
      proofs = last.proofs @ first.proofs;
    }
  in
  Array.concat [ Array.sub a 0 (la - 1); [| joint |]; Array.sub b 1 (Array.length b - 1) ]

let links_of crossings =
  Array.of_list
    (List.filter_map
       (fun c -> if c.out_link >= 0 then Some c.out_link else None)
       (Array.to_list crossings))

let no_repeated_as crossings =
  let seen = Hashtbl.create 16 in
  Array.for_all
    (fun c ->
      if Hashtbl.mem seen c.as_idx then false
      else begin
        Hashtbl.replace seen c.as_idx ();
        true
      end)
    crossings

let make combination crossings =
  if Array.length crossings = 0 || not (no_repeated_as crossings) then None
  else Some { crossings; links = links_of crossings; combination }

let index_of_as crossings x =
  let rec go i =
    if i >= Array.length crossings then None
    else if crossings.(i).as_idx = x then Some i
    else go (i + 1)
  in
  go 0

(* Cap on the paths one combination returns. *)
let max_paths = 64

let reference_candidates g ~up ~core ~down ~src ~dst =
  let results = ref [] in
  let add p = match p with Some p -> results := p :: !results | None -> () in
  let ups = List.filter (fun (s : Segment.t) -> s.Segment.leaf = src) up in
  let downs = List.filter (fun (s : Segment.t) -> s.Segment.leaf = dst) down in
  (* Single-segment combinations. *)
  List.iter
    (fun (u : Segment.t) ->
      if u.Segment.origin = dst then add (make Up_only (traverse_up u)))
    ups;
  List.iter
    (fun (d : Segment.t) ->
      if d.Segment.origin = src then add (make Down_only (traverse_down d)))
    downs;
  List.iter
    (fun (c : Segment.t) ->
      if c.Segment.leaf = src && c.Segment.origin = dst then
        add (make Core_only (traverse_up c)))
    core;
  (* Two-segment combinations. *)
  List.iter
    (fun (u : Segment.t) ->
      List.iter
        (fun (c : Segment.t) ->
          if u.Segment.origin = c.Segment.leaf && c.Segment.origin = dst then
            add (make Up_core (join (traverse_up u) (traverse_up c))))
        core)
    ups;
  List.iter
    (fun (c : Segment.t) ->
      List.iter
        (fun (d : Segment.t) ->
          if c.Segment.leaf = src && c.Segment.origin = d.Segment.origin then
            add (make Core_down (join (traverse_up c) (traverse_down d))))
        downs)
    core;
  List.iter
    (fun (u : Segment.t) ->
      List.iter
        (fun (d : Segment.t) ->
          (* Join at a shared core AS, no core segment needed. *)
          if u.Segment.origin = d.Segment.origin then
            add (make Up_down (join (traverse_up u) (traverse_down d)));
          (* Shortcut: cross over at any common non-origin AS (§2.3). *)
          let tu = traverse_up u and td = traverse_down d in
          Array.iter
            (fun cu ->
              if cu.as_idx <> u.Segment.origin then begin
                match index_of_as td cu.as_idx with
                | Some j when j > 0 ->
                    let upto =
                      match index_of_as tu cu.as_idx with Some i -> i | None -> -1
                    in
                    if upto >= 0 then begin
                      let a = Array.sub tu 0 (upto + 1) in
                      let b = Array.sub td j (Array.length td - j) in
                      add (make Shortcut (join a b))
                    end
                | _ -> ()
              end)
            tu;
          (* Peering shortcut: a peering link advertised by an AS on the
             up segment and an AS on the down segment (§2.2). *)
          Array.iteri
            (fun ui cu ->
              List.iter
                (fun proof ->
                  Array.iter
                    (fun l ->
                      Array.iteri
                        (fun dj cd ->
                          let l_matches_down =
                            List.exists
                              (fun (p : Segment.hop_field) ->
                                Array.exists (fun x -> x = l) p.Segment.peers)
                              cd.proofs
                          in
                          if l_matches_down then begin
                            let lk = Graph.link g l in
                            let connects =
                              (lk.Graph.a = cu.as_idx && lk.Graph.b = cd.as_idx)
                              || (lk.Graph.b = cu.as_idx && lk.Graph.a = cd.as_idx)
                            in
                            if connects then begin
                              let a = Array.sub tu 0 (ui + 1) in
                              let b = Array.sub td dj (Array.length td - dj) in
                              let x_cross =
                                {
                                  (a.(ui)) with
                                  out_if = Graph.iface_of lk cu.as_idx;
                                  out_link = l;
                                }
                              in
                              let y_cross =
                                {
                                  (b.(0)) with
                                  in_if = Graph.iface_of lk cd.as_idx;
                                  in_link = l;
                                }
                              in
                              a.(ui) <- x_cross;
                              b.(0) <- y_cross;
                              add (make Peering_shortcut (Array.append a b))
                            end
                          end)
                        td)
                    proof.Segment.peers)
                cu.proofs)
            tu)
        downs)
    ups;
  (* Three-segment combination. *)
  List.iter
    (fun (u : Segment.t) ->
      List.iter
        (fun (c : Segment.t) ->
          if u.Segment.origin = c.Segment.leaf then
            List.iter
              (fun (d : Segment.t) ->
                if c.Segment.origin = d.Segment.origin then
                  add
                    (make Up_core_down
                       (join (join (traverse_up u) (traverse_up c)) (traverse_down d))))
              downs)
        core)
    ups;
  (* Deduplicate, sort by AS-hop count, cap. *)
  let seen = Hashtbl.create 32 in
  let uniq =
    List.filter
      (fun p ->
        let k = Fwd_path.key p in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      !results
  in
  let sorted = List.sort (fun a b -> compare (Fwd_path.length a) (Fwd_path.length b)) uniq in
  sorted

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let reference_combine g ~up ~core ~down ~src ~dst =
  take max_paths (reference_candidates g ~up ~core ~down ~src ~dst)
