type workload = { prefixes : int array; flaps_per_prefix : float array }

(* Prefixes per AS: Pareto(1.1, 1), mean 11, capped at 20 000. *)
let prefix_alpha = 1.1
let prefix_mean_cap = 20000

(* Flap events per prefix per month: Pareto(1.25, 1.6), mean
   1.25 * 1.6 / 0.25 = 8. *)
let flap_alpha = 1.25
let flap_x_min = 1.6

let make_workload ?(prefix_mean = 11.0) g ~seed =
  let rng = Rng.create seed in
  let n = Graph.n g in
  (* The Pareto(1.1, 1) draw has mean ~11; rescale to the requested
     mean so smaller-than-Internet topologies can carry an
     Internet-proportional prefix load (see Fig5). *)
  let rescale = prefix_mean /. 11.0 in
  let prefixes =
    Array.init n (fun _ ->
        let draw = Rng.pareto rng ~alpha:prefix_alpha ~x_min:1.0 *. rescale in
        max 1 (min prefix_mean_cap (int_of_float draw)))
  in
  let flaps_per_prefix =
    Array.init n (fun _ -> Rng.pareto rng ~alpha:flap_alpha ~x_min:flap_x_min)
  in
  { prefixes; flaps_per_prefix }

type params = { churn_amplification : float; bgpsec_refresh_days : int }

let default_params = { churn_amplification = 2.5; bgpsec_refresh_days = 30 }

type result = {
  monitors : int array;
  bgp_bytes : float array;
  bgp_updates : float array;
  bgpsec_bytes : float array;
  bgpsec_updates : float array;
}

let monthly_overhead g workload ~monitors params =
  let monitors = Array.of_list monitors in
  let nm = Array.length monitors in
  let bgp_bytes = Array.make nm 0.0 in
  let bgp_updates = Array.make nm 0.0 in
  let bgpsec_bytes = Array.make nm 0.0 in
  let bgpsec_updates = Array.make nm 0.0 in
  for dst = 0 to Graph.n g - 1 do
    let table = Bgp_routes.compute g ~dst in
    let prefixes = workload.prefixes.(dst) in
    let flaps = workload.flaps_per_prefix.(dst) in
    Array.iteri
      (fun mi m ->
        if m <> dst && table.Bgp_routes.cls.(m) <> Bgp_routes.No_route then begin
          (* The monitor's full-feed session: its own best route,
             re-announced on every flap of any of the origin's
             prefixes (times path-exploration amplification). *)
          let len = table.Bgp_routes.dist.(m) + 1 in
          let events =
            float_of_int prefixes *. flaps *. params.churn_amplification
          in
          let bytes_per_event =
            float_of_int (Wire.bgp_update_bytes ~as_path_len:len ~prefixes:1)
          in
          bgp_bytes.(mi) <- bgp_bytes.(mi) +. (events *. bytes_per_event);
          bgp_updates.(mi) <- bgp_updates.(mi) +. events;
          (* BGPsec: a daily re-origination of every prefix in its own
             unaggregated, per-hop-signed update. *)
          let refreshes = float_of_int params.bgpsec_refresh_days in
          let per_update =
            float_of_int (Wire.bgpsec_update_bytes ~as_path_len:len)
          in
          bgpsec_bytes.(mi) <-
            bgpsec_bytes.(mi) +. (refreshes *. float_of_int prefixes *. per_update);
          bgpsec_updates.(mi) <-
            bgpsec_updates.(mi) +. (refreshes *. float_of_int prefixes)
        end)
      monitors
  done;
  { monitors; bgp_bytes; bgp_updates; bgpsec_bytes; bgpsec_updates }

let top_degree_monitors g ~count =
  let order = Array.init (Graph.n g) (fun i -> i) in
  Array.sort
    (fun a b -> compare (Graph.as_degree g b, a) (Graph.as_degree g a, b))
    order;
  Array.to_list (Array.sub order 0 (min count (Graph.n g)))
