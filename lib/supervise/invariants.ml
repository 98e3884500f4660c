type violation = { check : string; detail : string }

exception Violated of violation list

let () =
  Printexc.register_printer (function
    | Violated vs ->
        Some
          (Printf.sprintf "Invariants.Violated(%s)"
             (String.concat "; "
                (List.map (fun v -> v.check ^ ": " ^ v.detail) vs)))
    | _ -> None)

type ctx = {
  graph : Graph.t;
  now : float;
  links : Link_state.t;
  stores : Beacon_store.t array;
  path_server : Path_server.t option;
  events : Fault_plan.event array;
  cursor : int;
}

let violation check fmt = Printf.ksprintf (fun detail -> { check; detail }) fmt

let check_link_state ctx =
  let n = Graph.num_links ctx.graph in
  let vs = ref [] in
  if Link_state.n_links ctx.links <> n then
    vs :=
      violation "link-state" "tracks %d links, graph has %d"
        (Link_state.n_links ctx.links) n
      :: !vs
  else begin
    for l = 0 to n - 1 do
      if Link_state.holds ctx.links l < 0 then
        vs :=
          violation "link-state" "negative hold count %d on link %d"
            (Link_state.holds ctx.links l) l
          :: !vs
    done;
    (* The refcounts must equal an independent replay of the consumed
       prefix of the fault plan. *)
    if ctx.cursor < 0 || ctx.cursor > Array.length ctx.events then
      vs :=
        violation "fault-cursor" "cursor %d outside [0, %d]" ctx.cursor
          (Array.length ctx.events)
        :: !vs
    else begin
      let replay = Link_state.create ~n_links:n in
      for i = 0 to ctx.cursor - 1 do
        let e = ctx.events.(i) in
        ignore
          (Link_state.apply replay ~now:e.Fault_plan.time ~link:e.Fault_plan.link
             ~action:e.Fault_plan.action)
      done;
      for l = 0 to n - 1 do
        if Link_state.holds ctx.links l <> Link_state.holds replay l then
          vs :=
            violation "link-state" "link %d holds %d, replay of %d events gives %d"
              l
              (Link_state.holds ctx.links l)
              ctx.cursor (Link_state.holds replay l)
            :: !vs
      done
    end
  end;
  !vs

let check_stores ctx =
  let num_links = Graph.num_links ctx.graph in
  let vs = ref [] in
  Array.iteri
    (fun holder store ->
      List.iter
        (fun (p : Pcb.t) ->
          Array.iter
            (fun l ->
              if l < 0 || l >= num_links then
                vs :=
                  violation "store-links" "AS %d stores PCB over unknown link %d"
                    holder l
                  :: !vs
              else if not (Link_state.up ctx.links l) then
                vs :=
                  violation "store-links"
                    "AS %d stores a valid PCB over down link %d (origin %d)"
                    holder l p.Pcb.origin
                  :: !vs)
            p.Pcb.links)
        (Beacon_store.all_paths store ~now:ctx.now))
    ctx.stores;
  !vs

let check_path_server ctx =
  match ctx.path_server with
  | None -> []
  | Some ps ->
      let vs = ref [] in
      Path_server.iter ps (fun ~core ~idx (s : Segment.t) ->
          if Segment.is_valid s ~now:ctx.now then
            Array.iter
              (fun l ->
                if not (Link_state.up ctx.links l) then
                  vs :=
                    violation "path-server"
                      "%s bucket %d holds an unrevoked segment over down link \
                       %d"
                      (if core then "core" else "down")
                      idx l
                    :: !vs)
              s.Segment.links);
      let st = Path_server.stats ps in
      if
        st.Path_server.registrations < 0
        || st.Path_server.revoked_segments < 0
        || st.Path_server.lookups_down < 0
        || st.Path_server.lookups_core < 0
      then vs := violation "path-server" "negative stats counter" :: !vs;
      !vs

let check_all ctx =
  check_link_state ctx @ check_stores ctx @ check_path_server ctx

let check_exn ctx =
  match check_all ctx with [] -> () | vs -> raise (Violated vs)
