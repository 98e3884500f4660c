(* The SimBGP settings of §5.1, plus a 10 ms per-hop propagation delay. *)
let mrai = 15.0
let processing_delay = 0.005
let propagation_delay = 0.010

(* Virtual-time bound on one [run_to_quiescence]. *)
let quiescence_guard = 3600.0

type session = {
  neighbor : int;
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
  best : (int, int list) Hashtbl.t;
      (* prefix -> installed path, from the AS itself to the origin *)
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

let create ?(obs = Obs.disabled) g =
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
  let proto_labels = [ ("proto", "bgp") ] in
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

(* Schedule [fire] at absolute [time], never before [now]. *)
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

(* The decision process: the shortest AS path, ties to the lowest next
   hop. The own prefix's path [[v]] is the only one of length 1, so it
   always wins. *)
let decide node prefix =
  let self =
    if node.originating && prefix = node.idx then Some [ node.idx ] else None
  in
  let key path =
    (-List.length path, -(match path with _ :: nh :: _ -> nh | _ -> 0))
  in
  Hashtbl.fold
    (fun u (s : session) acc ->
      if s.live_links = 0 then acc
      else begin
        match Hashtbl.find_opt node.rib_in (u, prefix) with
        | None -> acc
        | Some p when List.mem node.idx p -> acc (* loop *)
        | Some p -> (
            let cand = node.idx :: p in
            match acc with
            | Some best when compare (key cand) (key best) <= 0 -> acc
            | _ -> Some cand)
      end)
    node.sessions self

let rec flush_session t node (s : session) =
  let now = t.clock in
  if now >= s.ready_at then begin
    let prefixes = Hashtbl.fold (fun p () acc -> p :: acc) s.pending [] in
    Hashtbl.reset s.pending;
    if prefixes <> [] then begin
      let sent_something = ref false in
      List.iter
        (fun prefix ->
          let announce = Hashtbl.find_opt node.best prefix in
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
              | Some p ->
                  float_of_int
                    (Wire.bgp_update_bytes ~as_path_len:(List.length p)
                       ~prefixes:1)
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
            at t (now +. propagation_delay) (fun () ->
                receive t ~receiver ~sender ~prefix ~path:announce ~size)
          end)
        prefixes;
      if !sent_something then s.ready_at <- now +. mrai
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
  let winner = decide node prefix in
  if Hashtbl.find_opt node.best prefix <> winner then begin
    (match winner with
    | Some p -> Hashtbl.replace node.best prefix p
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
              | Some p -> string_of_int (List.length p)
              | None -> "0" );
          ]
        "best route changed";
    schedule_exports t node prefix
  end

and receive t ~receiver ~sender ~prefix ~path ~size =
  let node = t.nodes.(receiver) in
  (* Serialise processing: each update occupies the speaker for the
     processing delay. *)
  let start = max t.clock node.busy_until in
  let done_at = start +. processing_delay in
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

let run_to_quiescence t =
  let t_start = t.clock in
  let updates_before = t.st.updates_sent + t.st.withdrawals_sent in
  let deadline = t_start +. quiescence_guard in
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

let best_path t ~src ~prefix = Hashtbl.find_opt t.nodes.(src).best prefix

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
