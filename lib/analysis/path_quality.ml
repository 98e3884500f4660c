let optimum g ~src ~dst =
  let f = Maxflow.create ~n:(Graph.n g) in
  for l = 0 to Graph.num_links g - 1 do
    let lk = Graph.link g l in
    Maxflow.add_undirected f lk.Graph.a lk.Graph.b ~cap:1
  done;
  Maxflow.max_flow f ~src ~dst

let links_of_pcbs pcbs =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (p : Pcb.t) ->
      Array.iter
        (fun l -> if not (Hashtbl.mem seen l) then Hashtbl.replace seen l ())
        p.Pcb.links)
    pcbs;
  Hashtbl.fold (fun l () acc -> l :: acc) seen []

let flow_of_links g links ~src ~dst =
  let f = Maxflow.create ~n:(Graph.n g) in
  List.iter
    (fun l ->
      let lk = Graph.link g l in
      Maxflow.add_undirected f lk.Graph.a lk.Graph.b ~cap:1)
    links;
  Maxflow.max_flow f ~src ~dst

let of_pcbs g pcbs ~src ~dst = flow_of_links g (links_of_pcbs pcbs) ~src ~dst

let of_outcome g (outcome : Beaconing.outcome) pairs =
  let now = Beaconing.end_instant outcome.config in
  Array.map
    (fun (s, d) ->
      let pcbs = Beacon_store.paths outcome.stores.(s) ~now ~origin:d in
      of_pcbs g pcbs ~src:s ~dst:d)
    pairs

let of_as_paths g paths ~src ~dst =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let rec walk = function
        | u :: (v :: _ as rest) ->
            List.iter
              (fun (lk : Graph.link) ->
                if not (Hashtbl.mem seen lk.Graph.link_id) then
                  Hashtbl.replace seen lk.Graph.link_id ())
              (Graph.links_between g u v);
            walk rest
        | _ -> ()
      in
      walk path)
    paths;
  flow_of_links g (Hashtbl.fold (fun l () acc -> l :: acc) seen []) ~src ~dst
