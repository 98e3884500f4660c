type algo_kind =
  | Bgp
  | Baseline of int
  | Diversity of int option

type algo = { kind : algo_kind; name : string; flows : int array }

type result = {
  scale : Exp_common.scale;
  pairs : (int * int) array;
  optimum : int array;
  algos : algo list;
}

type config = {
  scale : Exp_common.scale;
  seed : int64 option;
  storage_limits : int option list;
  beacon : Beaconing.config;
}

let baseline_limit = 60

let config ?seed ?(storage_limits = [ Some 15; Some 30; Some 60; None ])
    ?(beacon = Exp_common.beacon_config) scale =
  { scale; seed; storage_limits; beacon }

let name = "fig6"

let doc = "Figure 6: path quality (resilience and capacity)"

let storage_name = function None -> "\xe2\x88\x9e" (* ∞ *) | Some limit -> string_of_int limit

let kind_name = function
  | Bgp -> "BGP"
  | Baseline limit -> Printf.sprintf "SCION Baseline (%d)" limit
  | Diversity limit -> Printf.sprintf "SCION Diversity (%s)" (storage_name limit)

(* Beaconing stores at most [storage_limit] PCBs per origin; [None]
   (unlimited) maps onto the engine's [max_int] representation. *)
let beaconing_limit = function None -> max_int | Some limit -> limit

(* Independent stages: the optimum cuts, the BGP flows and one
   beaconing run per algorithm all fan out as parallel jobs. *)
type stage = S_optimum of int array | S_algo of algo

let run ?(obs = Obs.disabled) ?(jobs = 1)
    { scale; seed; storage_limits; beacon } =
  let prepared =
    Obs.phase obs "fig6.prepare" (fun () -> Exp_common.prepare ?seed scale)
  in
  let core = prepared.Exp_common.core in
  let d = Exp_common.dimensions scale in
  let pairs = Exp_common.sample_pairs core ~count:d.Exp_common.sample_pairs ~seed:0xF16AL in
  let cfg = beacon in
  let beacon_algo ~obs kind config =
    let out = Beaconing.run ~obs core config in
    {
      kind;
      name = kind_name kind;
      flows = Path_quality.of_outcome core out pairs;
    }
  in
  let stages =
    Array.of_list
      ((fun ~obs ->
         S_optimum
           (Obs.phase obs "fig6.optimum_cuts" (fun () ->
                Array.map (fun (s, d) -> Path_quality.optimum core ~src:s ~dst:d) pairs)))
      :: (fun ~obs ->
           S_algo
             (Obs.phase obs "fig6.bgp_flows" (fun () ->
                  let flows =
                    Array.map
                      (fun (s, d) ->
                        let paths = Bgp_routes.shortest_multipath core ~src:s ~dst:d in
                        Path_quality.of_as_paths core paths ~src:s ~dst:d)
                      pairs
                  in
                  { kind = Bgp; name = kind_name Bgp; flows })))
      :: (fun ~obs ->
           S_algo
             (Obs.phase obs "fig6.beaconing.baseline" (fun () ->
                  beacon_algo ~obs (Baseline baseline_limit)
                    { cfg with Beaconing.storage_limit = baseline_limit })))
      :: List.map
           (fun limit ~obs ->
             S_algo
               (Obs.phase obs "fig6.beaconing.diversity" (fun () ->
                    beacon_algo ~obs (Diversity limit)
                      {
                        cfg with
                        Beaconing.storage_limit = beaconing_limit limit;
                        Beaconing.algorithm =
                          Beacon_policy.Diversity
                            Beacon_policy.default_div_params;
                      })))
           storage_limits)
  in
  let staged = Runner.map_jobs_obs ~obs ~jobs (fun ~obs stage -> stage ~obs) stages in
  let optimum =
    match staged.(0) with S_optimum o -> o | S_algo _ -> assert false
  in
  let algos =
    Array.to_list staged
    |> List.filter_map (function S_algo a -> Some a | S_optimum _ -> None)
  in
  { scale; pairs; optimum; algos }

let find_kind r kind = List.find_opt (fun a -> a.kind = kind) r.algos

let capacity_fraction r kind =
  match find_kind r kind with
  | None -> nan
  | Some a ->
      (* Mean of per-pair achieved/optimal ratios (capped at 1), so a
         few extremely parallel pairs do not dominate the aggregate. *)
      let sum = ref 0.0 and cnt = ref 0 in
      Array.iteri
        (fun i f ->
          if r.optimum.(i) > 0 then begin
            sum := !sum +. min 1.0 (float_of_int f /. float_of_int r.optimum.(i));
            incr cnt
          end)
        a.flows;
      if !cnt = 0 then nan else !sum /. float_of_int !cnt

let to_json (r : result) =
  let ints a = Obs_json.List (List.map (fun v -> Obs_json.Int v) (Array.to_list a)) in
  Obs_json.Obj
    [
      ("experiment", Obs_json.String name);
      ("scale", Obs_json.String (Exp_common.scale_to_string r.scale));
      ("pairs", Obs_json.Int (Array.length r.pairs));
      ("optimum", ints r.optimum);
      ( "algos",
        Obs_json.List
          (List.map
             (fun a ->
               Obs_json.Obj
                 [
                   ("name", Obs_json.String a.name);
                   ( "capacity_fraction",
                     Obs_json.Float (capacity_fraction r a.kind) );
                   ("flows", ints a.flows);
                 ])
             r.algos) );
    ]

let print (r : result) =
  Printf.printf "Figure 6 — path quality on the core topology (scale=%s, %d AS pairs)\n\n"
    (Exp_common.scale_to_string r.scale)
    (Array.length r.pairs);
  (* --- Fig. 6a: achieved resilience grouped by optimal min-cut. --- *)
  print_endline
    "Fig. 6a — mean number of failing links needed to disconnect a pair,";
  print_endline "grouped by the pair's optimal (full-topology) min-cut:";
  let max_opt = Array.fold_left max 0 r.optimum in
  let buckets = List.init (max 1 (min max_opt 15)) (fun i -> i + 1) in
  let group_mean flows bucket =
    let sum = ref 0.0 and cnt = ref 0 in
    Array.iteri
      (fun i o ->
        let in_bucket = if bucket = 15 then o >= 15 else o = bucket in
        if in_bucket then begin
          sum := !sum +. float_of_int flows.(i);
          incr cnt
        end)
      r.optimum;
    if !cnt = 0 then None else Some (!sum /. float_of_int !cnt)
  in
  let header =
    "optimal cut" :: "#pairs" :: "Optimum" :: List.map (fun a -> a.name) r.algos
  in
  let rows =
    List.filter_map
      (fun b ->
        let count =
          Array.fold_left
            (fun acc o -> if (if b = 15 then o >= 15 else o = b) then acc + 1 else acc)
            0 r.optimum
        in
        if count = 0 then None
        else begin
          let cells =
            List.map
              (fun a ->
                match group_mean a.flows b with
                | None -> "-"
                | Some m -> Printf.sprintf "%.1f" m)
              r.algos
          in
          let label = if b = 15 then ">=15" else string_of_int b in
          Some (label :: string_of_int count
                :: (match group_mean r.optimum b with
                   | None -> "-"
                   | Some m -> Printf.sprintf "%.1f" m)
                :: cells)
        end)
      buckets
  in
  Table.print ~header ~rows;
  print_newline ();
  (* --- Fig. 6b: capacity CDF. --- *)
  print_endline "Fig. 6b — capacity CDF (fraction of pairs with capacity <= c):";
  let caps = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let header = "capacity <=" :: List.map (fun a -> a.name) r.algos @ [ "All Paths (optimum)" ] in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: (List.map
             (fun a -> Printf.sprintf "%.2f" (Stats.fraction_le a.flows c))
             r.algos
           @ [ Printf.sprintf "%.2f" (Stats.fraction_le r.optimum c) ]))
      caps
  in
  Table.print ~header ~rows;
  print_newline ();
  (* --- Headlines, matched on the algorithm variant (renaming the
     display strings can no longer silently drop them). --- *)
  print_endline "Headline checks (paper §5.3):";
  List.iter
    (fun a ->
      match a.kind with
      | Diversity _ ->
          Printf.printf "  %s reaches %.0f%% of optimal capacity (paper: 82-99%%)\n"
            a.name
            (100.0 *. capacity_fraction r a.kind)
      | Bgp | Baseline _ -> ())
    r.algos;
  (* Q1: baseline vs BGP for pairs with optimum <= 15. *)
  let mean_for kind pred =
    match find_kind r kind with
    | None -> nan
    | Some a ->
        let sum = ref 0.0 and cnt = ref 0 in
        Array.iteri
          (fun i f ->
            if pred r.optimum.(i) then begin
              sum := !sum +. float_of_int f;
              incr cnt
            end)
          a.flows;
        if !cnt = 0 then nan else !sum /. float_of_int !cnt
  in
  let small o = o <= 15 in
  let base_mean = mean_for (Baseline baseline_limit) small in
  let bgp_mean = mean_for Bgp small in
  Printf.printf
    "  baseline vs BGP resilience for pairs with optimum <=15 links: %.2fx (paper: >2x)\n"
    (base_mean /. bgp_mean)
