type scale = Tiny | Small | Medium | Paper

let scale_of_string = function
  | "tiny" -> Ok Tiny
  | "small" -> Ok Small
  | "medium" -> Ok Medium
  | "paper" -> Ok Paper
  | s -> Error (Printf.sprintf "unknown scale %S (tiny|small|medium|paper)" s)

let scale_to_string = function
  | Tiny -> "tiny"
  | Small -> "small"
  | Medium -> "medium"
  | Paper -> "paper"

type dimensions = {
  full_n : int;
  core_k : int;
  isd_cores : int;
  monitors : int;
  sample_pairs : int;
}

let dimensions = function
  | Tiny -> { full_n = 300; core_k = 40; isd_cores = 5; monitors = 10; sample_pairs = 60 }
  | Small ->
      { full_n = 1200; core_k = 100; isd_cores = 8; monitors = 26; sample_pairs = 150 }
  | Medium ->
      { full_n = 3000; core_k = 250; isd_cores = 11; monitors = 26; sample_pairs = 250 }
  | Paper ->
      { full_n = 12000; core_k = 2000; isd_cores = 11; monitors = 26; sample_pairs = 400 }

let topology_seed = 0x5C10AD00L

type prepared = {
  scale : scale;
  full : Graph.t;
  core : Graph.t;
  core_old_of_new : int array;
  isd : Graph.t;
  monitors_full : int list;
  monitors_core : int list;
}

let prepare ?(seed = topology_seed) scale =
  let d = dimensions scale in
  let params = { Caida_like.default_params with n = d.full_n; seed } in
  let full = Caida_like.generate params in
  let core, old_of_new = Caida_like.core_subset full ~k:d.core_k in
  let core = Caida_like.assign_isds core ~per_isd:10 in
  let isd, _ = Caida_like.build_isd full ~n_core:d.isd_cores in
  (* Monitors: the highest-degree full-topology ASes that survived the
     pruning, so BGP and SCION overheads are observed at the same ASes. *)
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun ni oi -> Hashtbl.replace new_of_old oi ni) old_of_new;
  let candidates = Bgp_overhead.top_degree_monitors full ~count:(Graph.n full) in
  let rec pick acc_full acc_core n = function
    | [] -> (List.rev acc_full, List.rev acc_core)
    | _ when n = 0 -> (List.rev acc_full, List.rev acc_core)
    | m :: rest -> (
        match Hashtbl.find_opt new_of_old m with
        | Some nm -> pick (m :: acc_full) (nm :: acc_core) (n - 1) rest
        | None -> pick acc_full acc_core n rest)
  in
  let monitors_full, monitors_core = pick [] [] d.monitors candidates in
  { scale; full; core; core_old_of_new = old_of_new; isd; monitors_full; monitors_core }

let beacon_config = Beaconing.default_config

let months_factor (cfg : Beaconing.config) =
  30.0 *. 24.0 *. 3600.0 /. cfg.Beaconing.duration

let sample_pairs g ~count ~seed =
  let rng = Rng.create seed in
  let n = Graph.n g in
  if n < 2 then [||]
  else begin
    let seen = Hashtbl.create count in
    let acc = ref [] in
    let found = ref 0 in
    let attempts = ref 0 in
    let max_attempts = count * 50 in
    while !found < count && !attempts < max_attempts do
      incr attempts;
      let s = Rng.int rng n and d = Rng.int rng n in
      if s <> d && not (Hashtbl.mem seen (s, d)) then begin
        Hashtbl.replace seen (s, d) ();
        acc := (s, d) :: !acc;
        incr found
      end
    done;
    Array.of_list (List.rev !acc)
  end

(* Links between two core ASes become core links, so an ISD graph
   carries both levels of the beaconing hierarchy. *)
let coreify g =
  Graph.freeze
    (Graph.to_builder g ~rel:(fun lk ->
         if Graph.is_core g lk.Graph.a && Graph.is_core g lk.Graph.b then
           Graph.Core
         else lk.Graph.rel))

let control_plane ?(obs = Obs.disabled) ?(jobs = 1) g =
  (* A shorter horizon than §5.1 suffices to populate the path servers. *)
  let cfg =
    {
      beacon_config with
      Beaconing.duration = beacon_config.Beaconing.interval *. 8.0;
    }
  in
  (* The two beaconing hierarchies are independent simulations. *)
  match
    Runner.map_jobs_obs ~obs ~jobs
      (fun ~obs (phase, scope) ->
        Obs.phase obs phase (fun () ->
            Beaconing.run ~obs g { cfg with Beaconing.scope }))
      [|
        ("beaconing.core", Beaconing.Core_beaconing);
        ("beaconing.intra_isd", Beaconing.Intra_isd);
      |]
  with
  | [| core; intra |] -> (core, intra, Control_service.build ~core ~intra ())
  | _ -> assert false
