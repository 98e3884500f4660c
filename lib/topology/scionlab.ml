type params = {
  n_core : int;
  chords : int;
  attachments_per_core : int;
}

let default_params = { n_core = 21; chords = 2; attachments_per_core = 0 }

(* Ring edges doubled: the testbed's parallel links. Every topology is
   drawn from one seed. *)
let parallel_edges = 2
let seed = 0x5C10AB2L

let generate p =
  if p.n_core < 3 then invalid_arg "Scionlab.generate: need at least 3 core ASes";
  let rng = Rng.create seed in
  let b = Graph.builder () in
  for i = 0 to p.n_core - 1 do
    ignore (Graph.add_as b ~tier:1 ~core:true (Id.ia ((i / 3) + 1) (i + 1)))
  done;
  for i = 0 to p.n_core - 1 do
    Graph.add_link b ~rel:Graph.Core i ((i + 1) mod p.n_core)
  done;
  let added = Hashtbl.create 8 in
  let chords = ref 0 in
  let attempts = ref 0 in
  while !chords < p.chords && !attempts < 1000 do
    incr attempts;
    let x = Rng.int rng p.n_core in
    let y = Rng.int rng p.n_core in
    let lo = min x y and hi = max x y in
    let adjacent = hi - lo = 1 || (lo = 0 && hi = p.n_core - 1) in
    if lo <> hi && (not adjacent) && not (Hashtbl.mem added (lo, hi)) then begin
      Hashtbl.replace added (lo, hi) ();
      Graph.add_link b ~rel:Graph.Core lo hi;
      incr chords
    end
  done;
  (* Double a few ring edges: parallel inter-AS links. *)
  let doubled = Hashtbl.create 4 in
  let added_parallel = ref 0 in
  let attempts = ref 0 in
  while !added_parallel < parallel_edges && !attempts < 1000 do
    incr attempts;
    let i = Rng.int rng p.n_core in
    if not (Hashtbl.mem doubled i) then begin
      Hashtbl.replace doubled i ();
      Graph.add_link b ~rel:Graph.Core i ((i + 1) mod p.n_core);
      incr added_parallel
    end
  done;
  let next_asn = ref (p.n_core + 1) in
  for i = 0 to p.n_core - 1 do
    for _ = 1 to p.attachments_per_core do
      let isd = (i / 3) + 1 in
      let leaf = Graph.add_as b ~tier:3 (Id.ia isd !next_asn) in
      incr next_asn;
      Graph.add_link b ~rel:Graph.Provider_customer i leaf
    done
  done;
  Graph.freeze b
