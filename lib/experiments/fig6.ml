type result = {
  scale : Exp_common.scale;
  pairs : (int * int) array;
  optimum : int array;
  algos : Quality_sweep.column list;
}

type config = {
  scale : Exp_common.scale;
  seed : int64 option;
  storage_limits : int option list;
  beacon : Beaconing.config;
}

let baseline = Variant.baseline (Some 60)

let config ?seed ?(storage_limits = [ Some 15; Some 30; Some 60; None ])
    ?(beacon = Exp_common.beacon_config) scale =
  { scale; seed; storage_limits; beacon }

let name = "fig6"

let doc = "Figure 6: path quality (resilience and capacity)"

let run ?(obs = Obs.disabled) ?(jobs = 1)
    { scale; seed; storage_limits; beacon } =
  let prepared =
    Obs.phase obs "fig6.prepare" (fun () -> Exp_common.prepare ?seed scale)
  in
  let core = prepared.Exp_common.core in
  let d = Exp_common.dimensions scale in
  let pairs = Exp_common.sample_pairs core ~count:d.Exp_common.sample_pairs ~seed:0xF16AL in
  let { Quality_sweep.optimum; columns } =
    Quality_sweep.run ~obs ~jobs ~scenario:name core beacon pairs
      (Quality_sweep.Bgp :: Quality_sweep.Scion baseline
      :: List.map
           (fun limit -> Quality_sweep.Scion (Variant.diversity limit))
           storage_limits)
  in
  { scale; pairs; optimum; algos = columns }

(* Mean of [flows] over the pairs whose optimum satisfies [keep]. *)
let mean_where r flows keep =
  let sum = ref 0.0 and cnt = ref 0 in
  Array.iteri
    (fun i o ->
      if keep o then begin
        sum := !sum +. float_of_int flows.(i);
        incr cnt
      end)
    r.optimum;
  if !cnt = 0 then nan else !sum /. float_of_int !cnt

(* Mean of per-pair achieved/optimal ratios (capped at 1), so a few
   extremely parallel pairs do not dominate the aggregate. *)
let capacity_fraction r (a : Quality_sweep.column) =
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
             (fun (a : Quality_sweep.column) ->
               Obs_json.Obj
                 [
                   ("name", Obs_json.String a.name);
                   ("capacity_fraction", Obs_json.Float (capacity_fraction r a));
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
  let in_bucket b o = if b = 15 then o >= 15 else o = b in
  let header =
    "optimal cut" :: "#pairs" :: "Optimum"
    :: List.map (fun (a : Quality_sweep.column) -> a.name) r.algos
  in
  let rows =
    List.filter_map
      (fun b ->
        let count =
          Array.fold_left (fun acc o -> if in_bucket b o then acc + 1 else acc) 0 r.optimum
        in
        if count = 0 then None
        else
          let cell flows = Printf.sprintf "%.1f" (mean_where r flows (in_bucket b)) in
          Some
            ((if b = 15 then ">=15" else string_of_int b)
            :: string_of_int count :: cell r.optimum
            :: List.map (fun (a : Quality_sweep.column) -> cell a.flows) r.algos))
      buckets
  in
  Table.print ~header ~rows;
  print_newline ();
  (* --- Fig. 6b: capacity CDF. --- *)
  print_endline "Fig. 6b — capacity CDF (fraction of pairs with capacity <= c):";
  Quality_sweep.print_cdf ~label:"capacity <=" ~caps:[ 1; 2; 4; 8; 16; 32; 64 ]
    ~optimum:r.optimum r.algos;
  print_newline ();
  (* --- Headlines, matched on the algorithm variant (renaming the
     display strings can no longer silently drop them). --- *)
  print_endline "Headline checks (paper §5.3):";
  List.iter
    (fun (a : Quality_sweep.column) ->
      match a.source with
      | Scion { algorithm = Beacon_policy.Diversity _; _ } ->
          Printf.printf "  %s reaches %.0f%% of optimal capacity (paper: 82-99%%)\n"
            a.name
            (100.0 *. capacity_fraction r a)
      | Scion _ | Bgp -> ())
    r.algos;
  (* Q1: baseline vs BGP for pairs with optimum <= 15. *)
  let mean_for source =
    match List.find_opt (fun (a : Quality_sweep.column) -> a.source = source) r.algos with
    | None -> nan
    | Some a -> mean_where r a.flows (fun o -> o <= 15)
  in
  let base_mean = mean_for (Quality_sweep.Scion baseline) in
  let bgp_mean = mean_for Quality_sweep.Bgp in
  Printf.printf
    "  baseline vs BGP resilience for pairs with optimum <=15 links: %.2fx (paper: >2x)\n"
    (base_mean /. bgp_mean)
