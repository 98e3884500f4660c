type config = {
  mrai : float;
  processing_delay : float;
  propagation_delay : float;
  bgpsec : bool;
  full_transit : bool;
}

let default_config =
  {
    mrai = 15.0;
    processing_delay = 0.005;
    propagation_delay = 0.010;
    bgpsec = false;
    full_transit = false;
  }

(* A route as installed at an AS: the path starts with the AS itself
   and ends at the prefix origin. *)
type route = { path : int list; cls : Bgp_routes.route_class }

type session = {
  neighbor : int;
  dir : Graph.rel_from_self;
  mutable live_links : int;
  mutable ready_at : float;  (* MRAI: earliest next advertisement *)
  mutable fire_scheduled : bool;
  pending : (int, unit) Hashtbl.t;  (* prefixes awaiting advertisement *)
  out : (int, int list) Hashtbl.t;  (* Adj-RIB-Out: what this session advertised *)
}

type node = {
  idx : int;
  sessions : (int, session) Hashtbl.t;  (* by neighbor *)
  rib_in : (int * int, int list) Hashtbl.t;  (* (neighbor, prefix) -> neighbor-rooted path *)
  best : (int, route) Hashtbl.t;  (* prefix -> installed route *)
  mutable originating : bool;
  mutable busy_until : float;  (* serialises the 5 ms processing delay *)
}

type stats_mut = {
  mutable updates_sent : int;
  mutable withdrawals_sent : int;
  mutable bytes_sent : float;
  updates_received_per_as : int array;
  bytes_received_per_as : float array;
  mutable last_route_change : float;
}

(* A pending event. The queue pops by (time, seq), so events for the
   same instant fire in the order they were scheduled. *)
type event = { time : float; seq : int; fire : unit -> unit }

type t = {
  graph : Graph.t;
  config : config;
  queue : event Heap.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;  (* events fired by this simulator *)
  nodes : node array;
  st : stats_mut;
  (* Observability cells, hoisted at creation (one branch per update
     or event when disabled). *)
  obs_on : bool;
  tr : Trace.t;
  c_updates : float ref;
  c_withdrawals : float ref;
  c_bytes : float ref;
  c_events : float ref;
  h_depth : Histogram.t;
}

type stats = {
  updates_sent : int;
  withdrawals_sent : int;
  bytes_sent : float;
  updates_received_per_as : int array;
  bytes_received_per_as : float array;
  last_route_change : float;
}

let compare_event a b =
  match Float.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let create ?(obs = Obs.disabled) g config =
  let check name d =
    if not (Float.is_finite d && d >= 0.0) then
      invalid_arg ("Bgp_sim.create: " ^ name ^ " must be finite and >= 0")
  in
  check "mrai" config.mrai;
  check "processing_delay" config.processing_delay;
  check "propagation_delay" config.propagation_delay;
  let n = Graph.n g in
  let nodes =
    Array.init n (fun idx ->
        let sessions = Hashtbl.create 8 in
        Array.iter
          (fun (h : Graph.half_link) ->
            match Hashtbl.find_opt sessions h.Graph.peer with
            | Some s -> s.live_links <- s.live_links + 1
            | None ->
                Hashtbl.replace sessions h.Graph.peer
                  {
                    neighbor = h.Graph.peer;
                    dir = h.Graph.dir;
                    live_links = 1;
                    ready_at = 0.0;
                    fire_scheduled = false;
                    pending = Hashtbl.create 8;
                    out = Hashtbl.create 8;
                  })
          (Graph.adj g idx);
        {
          idx;
          sessions;
          rib_in = Hashtbl.create 64;
          best = Hashtbl.create 64;
          originating = false;
          busy_until = 0.0;
        })
  in
  let obs_on = Obs.on obs in
  let proto_labels =
    [ ("proto", if config.bgpsec then "bgpsec" else "bgp") ]
  in
  let c_updates, c_withdrawals, c_bytes, c_events, h_depth =
    if obs_on then begin
      let reg = Obs.registry obs in
      ( Registry.counter reg ~labels:proto_labels "bgp_updates_sent_total",
        Registry.counter reg ~labels:proto_labels "bgp_withdrawals_sent_total",
        Registry.counter reg ~labels:proto_labels "bgp_bytes_sent_total",
        Registry.counter reg "des_events_total",
        Registry.histogram reg "des_queue_depth" )
    end
    else (ref 0.0, ref 0.0, ref 0.0, ref 0.0, Histogram.create ())
  in
  {
    graph = g;
    config;
    queue = Heap.create ~cmp:compare_event;
    clock = 0.0;
    next_seq = 0;
    fired = 0;
    nodes;
    obs_on;
    tr = Obs.trace obs;
    c_updates;
    c_withdrawals;
    c_bytes;
    c_events;
    h_depth;
    st =
      {
        updates_sent = 0;
        withdrawals_sent = 0;
        bytes_sent = 0.0;
        updates_received_per_as = Array.make n 0;
        bytes_received_per_as = Array.make n 0.0;
        last_route_change = 0.0;
      };
  }

let now t = t.clock

(* Schedule [fire] at absolute [time]; [create]'s delay check keeps
   every [time] at or after [now]. *)
let at t time fire =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.queue { time; seq; fire }

(* Instrumentation of one fired event; the queue depth is sampled every
   64 events of this simulator, whoever else shares the counter. *)
let observe_event t ev =
  t.fired <- t.fired + 1;
  t.c_events := !(t.c_events) +. 1.0;
  let depth = Heap.length t.queue in
  if t.fired land 63 = 0 then
    Histogram.observe t.h_depth (float_of_int depth);
  if Trace.enabled t.tr Trace.Debug then
    Trace.emit t.tr Trace.Debug ~time:ev.time ~category:"des"
      ~fields:[ ("queue", string_of_int depth) ]
      "event fired"

let class_of_dir = function
  | Graph.To_customer -> Bgp_routes.Via_customer
  | Graph.To_peer | Graph.To_core -> Bgp_routes.Via_peer
  | Graph.To_provider -> Bgp_routes.Via_provider

let class_rank = function
  | Bgp_routes.Self -> 4
  | Bgp_routes.Via_customer -> 3
  | Bgp_routes.Via_peer -> 2
  | Bgp_routes.Via_provider -> 1
  | Bgp_routes.No_route -> 0

(* Export filter: customer routes go everywhere; peer/provider routes
   only to customers. With [full_transit], everything is exported. *)
let exports t route (s : session) =
  if t.config.full_transit then route.cls <> Bgp_routes.No_route
  else begin
    match route.cls with
    | Bgp_routes.Self | Bgp_routes.Via_customer -> true
    | Bgp_routes.Via_peer | Bgp_routes.Via_provider -> s.dir = Graph.To_customer
    | Bgp_routes.No_route -> false
  end

let update_bytes t len =
  if t.config.bgpsec then
    float_of_int (Wire.bgpsec_update_bytes ~as_path_len:len)
  else float_of_int (Wire.bgp_update_bytes ~as_path_len:len ~prefixes:1)

(* Compute the decision-process winner for [prefix] at [node]. *)
let decide t node prefix =
  let self =
    if node.originating && prefix = node.idx then
      Some { path = [ node.idx ]; cls = Bgp_routes.Self }
    else None
  in
  Hashtbl.fold
    (fun u (s : session) acc ->
      if s.live_links = 0 then acc
      else begin
        match Hashtbl.find_opt node.rib_in (u, prefix) with
        | None -> acc
        | Some p when List.mem node.idx p -> acc (* loop *)
        | Some p ->
            let cand = { path = node.idx :: p; cls = class_of_dir s.dir } in
            let better =
              match acc with
              | None -> true
              | Some best ->
                  let key r =
                    ( (if t.config.full_transit then
                         (* length-only decision under full transit
                            (except preferring the own prefix) *)
                         if r.cls = Bgp_routes.Self then 1 else 0
                       else class_rank r.cls),
                      -List.length r.path,
                      -(match r.path with _ :: nh :: _ -> nh | _ -> 0) )
                  in
                  compare (key cand) (key best) > 0
            in
            if better then Some cand else acc
      end)
    node.sessions self
  |> fun best -> best

let rec flush_session t node (s : session) =
  let now = t.clock in
  if now >= s.ready_at then begin
    let prefixes = Hashtbl.fold (fun p () acc -> p :: acc) s.pending [] in
    Hashtbl.reset s.pending;
    if prefixes <> [] then begin
      let sent_something = ref false in
      List.iter
        (fun prefix ->
          let announce =
            match Hashtbl.find_opt node.best prefix with
            | Some r when exports t r s -> Some r.path
            | _ -> None
          in
          let previously = Hashtbl.find_opt s.out prefix in
          (* Adj-RIB-Out suppression: only state changes go on the wire,
             and a withdrawal is only sent for a previously announced
             route. *)
          let must_send =
            match (previously, announce) with
            | None, None -> false
            | Some p, Some p' -> p <> p'
            | None, Some _ | Some _, None -> true
          in
          if must_send then begin
            sent_something := true;
            (match announce with
            | Some p -> Hashtbl.replace s.out prefix p
            | None -> Hashtbl.remove s.out prefix);
            let size =
              match announce with
              | Some p -> update_bytes t (List.length p)
              | None -> float_of_int (Wire.bgp_withdraw_bytes ~prefixes:1)
            in
            (match announce with
            | Some _ -> t.st.updates_sent <- t.st.updates_sent + 1
            | None -> t.st.withdrawals_sent <- t.st.withdrawals_sent + 1);
            t.st.bytes_sent <- t.st.bytes_sent +. size;
            if t.obs_on then begin
              (match announce with
              | Some _ -> t.c_updates := !(t.c_updates) +. 1.0
              | None -> t.c_withdrawals := !(t.c_withdrawals) +. 1.0);
              t.c_bytes := !(t.c_bytes) +. size;
              if Trace.enabled t.tr Trace.Debug then
                Trace.emit t.tr Trace.Debug ~time:now ~category:"bgp"
                  ~fields:
                    [
                      ("from", string_of_int node.idx);
                      ("to", string_of_int s.neighbor);
                      ("prefix", string_of_int prefix);
                      ( "path_len",
                        match announce with
                        | Some p -> string_of_int (List.length p)
                        | None -> "0" );
                    ]
                  (match announce with
                  | Some _ -> "update sent"
                  | None -> "withdrawal sent")
            end;
            let receiver = s.neighbor in
            let sender = node.idx in
            at t (now +. t.config.propagation_delay) (fun () ->
                receive t ~receiver ~sender ~prefix ~path:announce ~size)
          end)
        prefixes;
      if !sent_something then s.ready_at <- now +. t.config.mrai
    end
  end
  else if not s.fire_scheduled then begin
    s.fire_scheduled <- true;
    at t s.ready_at (fun () ->
        s.fire_scheduled <- false;
        flush_session t node s)
  end

and schedule_exports t node prefix =
  Hashtbl.iter
    (fun _ (s : session) -> if s.live_links > 0 then begin
         Hashtbl.replace s.pending prefix ();
         flush_session t node s
       end)
    node.sessions

and reconsider t node prefix =
  let winner = decide t node prefix in
  let current = Hashtbl.find_opt node.best prefix in
  let changed =
    match (current, winner) with
    | None, None -> false
    | Some a, Some b -> a.path <> b.path || a.cls <> b.cls
    | _ -> true
  in
  if changed then begin
    (match winner with
    | Some r -> Hashtbl.replace node.best prefix r
    | None -> Hashtbl.remove node.best prefix);
    t.st.last_route_change <- t.clock;
    if t.obs_on && Trace.enabled t.tr Trace.Debug then
      Trace.emit t.tr Trace.Debug ~time:t.clock ~category:"bgp"
        ~fields:
          [
            ("as", string_of_int node.idx);
            ("prefix", string_of_int prefix);
            ( "path_len",
              match winner with
              | Some r -> string_of_int (List.length r.path)
              | None -> "0" );
          ]
        "best route changed";
    schedule_exports t node prefix
  end

and receive t ~receiver ~sender ~prefix ~path ~size =
  let node = t.nodes.(receiver) in
  (* Serialise processing: each update occupies the speaker for the
     configured processing delay. *)
  let start = max t.clock node.busy_until in
  let done_at = start +. t.config.processing_delay in
  node.busy_until <- done_at;
  t.st.updates_received_per_as.(receiver) <-
    t.st.updates_received_per_as.(receiver) + 1;
  t.st.bytes_received_per_as.(receiver) <-
    t.st.bytes_received_per_as.(receiver) +. size;
  at t done_at (fun () ->
      (* The session may have gone down while the update was in flight. *)
      match Hashtbl.find_opt node.sessions sender with
      | Some s when s.live_links > 0 ->
          (match path with
          | Some p -> Hashtbl.replace node.rib_in (sender, prefix) p
          | None -> Hashtbl.remove node.rib_in (sender, prefix));
          reconsider t node prefix
      | _ -> ())

let announce t ~origin =
  let node = t.nodes.(origin) in
  if not node.originating then begin
    node.originating <- true;
    reconsider t node origin
  end

let announce_all t =
  for v = 0 to Graph.n t.graph - 1 do
    announce t ~origin:v
  done

let withdraw_origin t ~origin =
  let node = t.nodes.(origin) in
  if node.originating then begin
    node.originating <- false;
    reconsider t node origin
  end

let affected_prefixes node neighbor =
  Hashtbl.fold
    (fun (u, prefix) _ acc -> if u = neighbor then prefix :: acc else acc)
    node.rib_in []
  |> List.sort_uniq compare

let session_down t v neighbor =
  let node = t.nodes.(v) in
  (match Hashtbl.find_opt node.sessions neighbor with
  | Some s ->
      Hashtbl.reset s.out;
      Hashtbl.reset s.pending
  | None -> ());
  let prefixes = affected_prefixes node neighbor in
  List.iter (fun p -> Hashtbl.remove node.rib_in (neighbor, p)) prefixes;
  List.iter (fun p -> reconsider t node p) prefixes

let fail_link t l =
  let lk = Graph.link t.graph l in
  let drop v nbr =
    match Hashtbl.find_opt t.nodes.(v).sessions nbr with
    | None -> ()
    | Some s ->
        if s.live_links > 0 then begin
          s.live_links <- s.live_links - 1;
          if s.live_links = 0 then session_down t v nbr
        end
  in
  drop lk.Graph.a lk.Graph.b;
  drop lk.Graph.b lk.Graph.a

let run_to_quiescence ?(max_time = 3600.0) t =
  let t_start = t.clock in
  let updates_before = t.st.updates_sent + t.st.withdrawals_sent in
  let deadline = t_start +. max_time in
  (* The deadline is checked before popping, so a bounded run leaves
     later events queued for the next call. *)
  while (not (Heap.is_empty t.queue)) && t.clock <= deadline do
    let ev = Heap.pop_exn t.queue in
    t.clock <- ev.time;
    if t.obs_on then observe_event t ev;
    ev.fire ()
  done;
  let t_end = t.clock in
  if t.obs_on && Trace.enabled t.tr Trace.Info then
    Trace.emit t.tr Trace.Info ~time:t_end ~category:"bgp"
      ~fields:
        [
          ("start", Printf.sprintf "%.3f" t_start);
          ("duration", Printf.sprintf "%.3f" (t_end -. t_start));
          ( "messages",
            string_of_int
              (t.st.updates_sent + t.st.withdrawals_sent - updates_before) );
        ]
      "convergence epoch complete";
  t_end

let best_path t ~src ~prefix =
  match Hashtbl.find_opt t.nodes.(src).best prefix with
  | Some r -> Some r.path
  | None -> None

let adj_rib_in_paths t ~src ~prefix =
  let node = t.nodes.(src) in
  Hashtbl.fold
    (fun (u, p) path acc ->
      if p = prefix && not (List.mem src path) then begin
        match Hashtbl.find_opt node.sessions u with
        | Some s when s.live_links > 0 -> (src :: path) :: acc
        | _ -> acc
      end
      else acc)
    node.rib_in []

let stats t =
  {
    updates_sent = t.st.updates_sent;
    withdrawals_sent = t.st.withdrawals_sent;
    bytes_sent = t.st.bytes_sent;
    updates_received_per_as = Array.copy t.st.updates_received_per_as;
    bytes_received_per_as = Array.copy t.st.bytes_received_per_as;
    last_route_change = t.st.last_route_change;
  }

let reset_stats t =
  t.st.updates_sent <- 0;
  t.st.withdrawals_sent <- 0;
  t.st.bytes_sent <- 0.0;
  Array.fill t.st.updates_received_per_as 0
    (Array.length t.st.updates_received_per_as)
    0;
  Array.fill t.st.bytes_received_per_as 0
    (Array.length t.st.bytes_received_per_as)
    0.0
