type source = Bgp | Scion of Variant.t

type column = {
  source : source;
  name : string;
  flows : int array;
  iface_bps : float array;
}

type t = { optimum : int array; columns : column list }

let name = function Bgp -> "BGP" | Scion v -> "SCION " ^ Variant.name v

(* One job's per-pair flows and interface rates: [None] is the
   optimum. *)
let job ~scenario g base pairs ~obs = function
  | None ->
      Obs.phase obs (scenario ^ ".optimum_cuts") (fun () ->
          ( Array.map (fun (s, d) -> Path_quality.optimum g ~src:s ~dst:d) pairs,
            [||] ))
  | Some Bgp ->
      Obs.phase obs (scenario ^ ".bgp_flows") (fun () ->
          ( Array.map
              (fun (s, d) ->
                Path_quality.of_as_paths g
                  (Bgp_routes.shortest_multipath g ~src:s ~dst:d)
                  ~src:s ~dst:d)
              pairs,
            [||] ))
  | Some (Scion v) ->
      Obs.phase obs (Variant.phase scenario v) (fun () ->
          let cfg = Variant.config base v in
          let out = Beaconing.run ~obs g cfg in
          ( Path_quality.of_outcome g out pairs,
            Array.map
              (fun b -> b /. cfg.Beaconing.duration)
              (Beaconing.eligible_iface_bytes out) ))

let run ?(obs = Obs.disabled) ?(jobs = 1) ~scenario g base pairs sources =
  let staged =
    Runner.map_jobs_obs ~obs ~jobs
      (job ~scenario g base pairs)
      (Array.of_list (None :: List.map Option.some sources))
  in
  {
    optimum = fst staged.(0);
    columns =
      List.mapi
        (fun i source ->
          let flows, iface_bps = staged.(i + 1) in
          { source; name = name source; flows; iface_bps })
        sources;
  }

let print_cdf ~label ~caps ~optimum columns =
  let series = List.map (fun c -> c.flows) columns @ [ optimum ] in
  let header =
    (label :: List.map (fun c -> c.name) columns) @ [ "All Paths (optimum)" ]
  in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: List.map
             (fun vs -> Printf.sprintf "%.2f" (Stats.fraction_le vs c))
             series)
      caps
  in
  Table.print ~header ~rows
