type scope = Core_beaconing | Intra_isd

type config = {
  scope : scope;
  algorithm : Beacon_policy.t;
  interval : float;
  lifetime : float;
  storage_limit : int;
  duration : float;
  verify_crypto : bool;
}

let default_config =
  {
    scope = Core_beaconing;
    algorithm = Beacon_policy.Baseline;
    interval = 600.0;
    lifetime = 21600.0;
    storage_limit = 60;
    duration = 21600.0;
    verify_crypto = false;
  }

type stats = {
  bytes_on_iface : float array;
  pcbs_on_iface : int array;
  mutable total_bytes : float;
  mutable total_pcbs : int;
  mutable crypto_failures : int;
  rounds : int;
}

type outcome = {
  graph : Graph.t;
  config : config;
  stores : Beacon_store.t array;
  stats : stats;
}

(* The round's messages in send order, as two growable arrays reused
   across rounds: 2 words per message. [pcbs.(i)] is the parent PCB the
   receiver extends if it keeps the message, or, when crypto is on, the
   signed extension itself; [dirs.(i)] is the directed interface
   [2 * link + side] it travels on. *)
type outbox = {
  mutable pcbs : Pcb.t array;
  mutable dirs : int array;
  mutable len : int;
}

(* Fills the free cells of [outbox.pcbs], so a delivered parent is not
   kept alive by the outbox. *)
let no_pcb = Pcb.origin_pcb ~origin:(-1) ~now:0.0 ~lifetime:0.0

let push ob pcb d =
  if ob.len = Array.length ob.dirs then begin
    let cap = max 1024 (2 * ob.len) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 ob.len;
      b
    in
    ob.pcbs <- grow ob.pcbs no_pcb;
    ob.dirs <- grow ob.dirs 0
  end;
  ob.pcbs.(ob.len) <- pcb;
  ob.dirs.(ob.len) <- d;
  ob.len <- ob.len + 1

let eligible_dir scope (h : Graph.half_link) =
  match scope with
  | Core_beaconing -> h.Graph.dir = Graph.To_core
  | Intra_isd -> h.Graph.dir = Graph.To_customer

let key_id v = "as:" ^ string_of_int v

let algo_label = function
  | Beacon_policy.Baseline -> "baseline"
  | Beacon_policy.Diversity _ -> "diversity"
  | Beacon_policy.Latency_aware _ -> "latency"

let scope_label = function Core_beaconing -> "core" | Intra_isd -> "intra-isd"

(* Export an outcome's accounting into [obs]: the send totals, the
   directed per-interface byte distribution as a histogram (the Fig. 9
   view) and the [observe_top] busiest interfaces as pcb_bytes{as,ifid}
   labeled counters (bounded so paper-scale runs do not explode the
   export). *)
let observe_top = 16

let observe obs (outcome : outcome) =
  if Obs.on obs then begin
    let g = outcome.graph in
    let stats = outcome.stats in
    let labels =
      [
        ("algo", algo_label outcome.config.algorithm);
        ("scope", scope_label outcome.config.scope);
      ]
    in
    let reg = Obs.registry obs in
    Registry.add reg ~labels "beacon_pcbs_sent_total"
      (float_of_int stats.total_pcbs);
    Registry.add reg ~labels "beacon_bytes_sent_total" stats.total_bytes;
    Registry.add reg ~labels "beacon_crypto_failures_total"
      (float_of_int stats.crypto_failures);
    let h = Registry.histogram reg ~labels "beacon_iface_bytes" in
    Array.iter (Histogram.observe h) stats.bytes_on_iface;
    let m = Array.length stats.bytes_on_iface in
    let idx = Array.init m Fun.id in
    Array.sort
      (fun a b -> compare stats.bytes_on_iface.(b) stats.bytes_on_iface.(a))
      idx;
    for i = 0 to min observe_top m - 1 do
      let d = idx.(i) in
      let lk = Graph.link g (d / 2) in
      let sender = if d land 1 = 0 then lk.Graph.a else lk.Graph.b in
      let ifid = Graph.iface_of lk sender in
      Registry.add reg "pcb_bytes"
        ~labels:
          (("as", string_of_int sender)
          :: ("ifid", string_of_int ifid)
          :: labels)
        stats.bytes_on_iface.(d)
    done;
    let trc = Obs.trace obs in
    if Trace.enabled trc Trace.Info then
      Trace.emit trc Trace.Info ~time:outcome.config.duration ~category:"beacon"
        ~fields:
          [
            ("algo", algo_label outcome.config.algorithm);
            ("scope", scope_label outcome.config.scope);
            ("rounds", string_of_int stats.rounds);
            ("total_pcbs", string_of_int stats.total_pcbs);
            ("total_bytes", Printf.sprintf "%.0f" stats.total_bytes);
          ]
        "beaconing complete"
  end

type engine = {
  eng_graph : Graph.t;
  eng_config : config;
  eng_stores : Beacon_store.t array;
  eng_stats : stats;
  eng_step : up:(int -> bool) -> round:int -> unit;
}

(* Build an engine over [stores]/[stats], fresh ones or ones {!read}
   restored; the caller has checked their lengths against [g]. *)
let make ~obs ~stores ~stats g cfg =
  if cfg.interval <= 0.0 then
    invalid_arg "Beaconing.engine: interval must be positive";
  let n = Graph.n g in
  let num_links = Graph.num_links g in
  (* Observability cells, hoisted so the send path pays one branch when
     disabled (the [Obs.disabled] default). *)
  let obs_on = Obs.on obs in
  let tr = Obs.trace obs in
  let obs_labels =
    [ ("algo", algo_label cfg.algorithm); ("scope", scope_label cfg.scope) ]
  in
  let c_originated =
    if obs_on then
      Registry.counter (Obs.registry obs) ~labels:obs_labels
        "beacon_pcbs_originated_total"
    else ref 0.0
  in
  (* Outgoing eligible interfaces, grouped by neighbor AS. *)
  let out_links =
    Array.init n (fun v ->
        Array.of_list
          (List.filter (eligible_dir cfg.scope) (Array.to_list (Graph.adj g v))))
  in
  let neighbor_groups =
    Array.init n (fun v ->
        let groups = Hashtbl.create 8 in
        Array.iter
          (fun (h : Graph.half_link) ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt groups h.Graph.peer) in
            Hashtbl.replace groups h.Graph.peer (h :: prev))
          out_links.(v);
        Hashtbl.fold
          (fun peer hs acc ->
            let hs = Array.of_list (List.rev hs) in
            (peer, hs, Array.map (fun (h : Graph.half_link) -> h.Graph.via) hs)
            :: acc)
          groups []
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b))
  in
  let peer_links =
    Array.init n (fun v ->
        match cfg.scope with
        | Core_beaconing -> [||]
        | Intra_isd ->
            Array.of_list
              (List.filter_map
                 (fun (h : Graph.half_link) ->
                   if h.Graph.dir = Graph.To_peer then Some h.Graph.via else None)
                 (Array.to_list (Graph.adj g v))))
  in
  let originator = Array.init n (fun v -> Graph.is_core g v) in
  let keystore = Signature.create_keystore () in
  let keys =
    if cfg.verify_crypto then
      Array.init n (fun v -> Some (Signature.generate keystore Signature.Ecdsa_p384 ~id:(key_id v)))
    else Array.make n None
  in
  (* §2.1-2.2 PKI: each ISD's TRC anchors the keys of its core ASes;
     member ASes hold certificates issued by a core AS of their ISD.
     Receivers verify the signer's certificate against the signer's
     TRC before checking the PCB signature. ISDs without a core AS
     (possible in hand-built test graphs) skip the certificate layer. *)
  let trcs : (int, Trc.t) Hashtbl.t = Hashtbl.create 8 in
  let certs : Trc.cert option array = Array.make n None in
  if cfg.verify_crypto then begin
    let cores_by_isd = Hashtbl.create 8 in
    List.iter
      (fun c ->
        let isd = (Graph.as_info g c).Graph.ia.Id.isd in
        Hashtbl.replace cores_by_isd isd
          (c :: Option.value ~default:[] (Hashtbl.find_opt cores_by_isd isd)))
      (Graph.core_ases g);
    Hashtbl.iter
      (fun isd cores ->
        Hashtbl.replace trcs isd
          (Trc.create ~roots:(List.map key_id (List.rev cores))))
      cores_by_isd;
    for v = 0 to n - 1 do
      let isd = (Graph.as_info g v).Graph.ia.Id.isd in
      match Hashtbl.find_opt cores_by_isd isd with
      | Some (issuer :: _) -> (
          match keys.(issuer) with
          | Some issuer_key -> certs.(v) <- Some (Trc.issue issuer_key ~subject:(key_id v))
          | None -> ())
      | _ -> ()
    done
  end;
  let signer_chain_valid signer =
    match certs.(signer) with
    | None -> true (* no TRC coverage for this ISD: signature check only *)
    | Some cert -> (
        let isd = (Graph.as_info g signer).Graph.ia.Id.isd in
        match Hashtbl.find_opt trcs isd with
        | Some trc -> Trc.verify_cert keystore trc cert
        | None -> false)
  in
  let div_states =
    match cfg.algorithm with
    | Beacon_policy.Baseline -> [||]
    | Beacon_policy.Diversity _ | Beacon_policy.Latency_aware _ ->
        Array.init n (fun _ -> Diversity_state.create ~n_as:n)
  in
  let scratch = Beacon_policy.create_scratch ~num_links in
  let outbox = { pcbs = [||]; dirs = [||]; len = 0 } in
  (* [pcb] extended by the sending end of directed interface [d]. *)
  let extension pcb d =
    let link = d / 2 in
    let lk = Graph.link g link in
    let sender = if d land 1 = 0 then lk.Graph.a else lk.Graph.b in
    let ingress =
      match Pcb.last_link pcb with
      | None -> 0
      | Some l -> Graph.iface_of (Graph.link g l) sender
    in
    Pcb.extend pcb ~asn:sender ~ingress ~egress:(Graph.iface_of lk sender)
      ~link ~peers:peer_links.(sender)
  in
  (* Gate, account and queue one PCB; the extension is built here only
     when the sender signs it. *)
  let send ~up ~now ~sender ~(h : Graph.half_link) pcb =
    if up h.Graph.via then begin
      let lk = Graph.link g h.Graph.via in
      let d = (2 * h.Graph.via) + if lk.Graph.a = sender then 0 else 1 in
      let size =
        float_of_int
          (Pcb.extension_wire_bytes pcb
             ~peers:(Array.length peer_links.(sender)))
      in
      stats.bytes_on_iface.(d) <- stats.bytes_on_iface.(d) +. size;
      stats.pcbs_on_iface.(d) <- stats.pcbs_on_iface.(d) + 1;
      stats.total_bytes <- stats.total_bytes +. size;
      stats.total_pcbs <- stats.total_pcbs + 1;
      (match keys.(sender) with
      | None -> push outbox pcb d
      | Some kp ->
          let ext = extension pcb d in
          let signature = Signature.sign kp (Pcb.signable_bytes ext) in
          push outbox (Pcb.with_signature ext signature) d);
      if obs_on && Trace.enabled tr Trace.Debug then
        Trace.emit tr Trace.Debug ~time:now ~category:"beacon"
          ~fields:
            [
              ("as", string_of_int sender);
              ("ifid", string_of_int h.Graph.local_if);
              ("receiver", string_of_int h.Graph.peer);
              ("bytes", Printf.sprintf "%.0f" size);
            ]
          "pcb propagated"
    end
  in

  (* --- Candidate gathering, shared by both selection algorithms:
     the origins AS [x] disseminates for (itself first when it is an
     originator) and, per origin, the candidate PCBs — a fresh origin
     PCB for [x] itself, otherwise its stored paths. Candidates are
     computed on first use and memoised for the round. --- *)
  let gather ~now x =
    let store = stores.(x) in
    let cand_cache : (int, Pcb.t list) Hashtbl.t = Hashtbl.create 16 in
    let candidates o =
      match Hashtbl.find_opt cand_cache o with
      | Some c -> c
      | None ->
          let c =
            if o = x then begin
              if obs_on then c_originated := !c_originated +. 1.0;
              [ Pcb.origin_pcb ~origin:x ~now ~lifetime:cfg.lifetime ]
            end
            else Beacon_store.paths store ~now ~origin:o
          in
          Hashtbl.replace cand_cache o c;
          c
    in
    let origins =
      (if originator.(x) then [ x ] else []) @ Beacon_store.origins store
    in
    (candidates, origins)
  in

  (* --- Baseline selection: P shortest per origin per interface. --- *)
  let run_baseline_as ~up ~now x =
    let send = send ~up ~now ~sender:x in
    let candidates, origins = gather ~now x in
    Array.iter
      (fun (h : Graph.half_link) ->
        let nbr = h.Graph.peer in
        List.iter
          (fun o ->
            if o <> nbr then begin
              let sent = ref 0 in
              List.iter
                (fun p ->
                  if
                    !sent < Beacon_policy.dissemination_limit
                    && not (Pcb.contains_as p nbr)
                  then begin
                    send ~h p;
                    incr sent
                  end)
                (candidates o)
            end)
          origins)
      out_links.(x)
  in

  (* --- Quality-aware selection: Algorithm 1 per (origin, neighbor),
     run by [Beacon_policy.evaluate]. --- *)
  let run_quality_as ~up ~now x =
    let send = send ~up ~now ~sender:x in
    let store = stores.(x) in
    let candidates, origins = gather ~now x in
    List.iter
      (fun (nbr, (hs : Graph.half_link array), egress) ->
        let send p j = send ~h:hs.(j) p in
        List.iter
          (fun o ->
            if o <> nbr then
              Beacon_policy.evaluate cfg.algorithm scratch div_states.(x)
                ~origin:o ~neighbor:nbr ~now
                ~store_last_mod:
                  (if o = x then infinity
                   else Beacon_store.last_modified store ~origin:o)
                ~candidates ~egress ~send)
          origins)
      neighbor_groups.(x)
  in

  (* Verify the newest AS entry's signature; inner entries were
     verified by the upstream on-path verifiers. *)
  let verified (pcb : Pcb.t) =
    match pcb.Pcb.signatures with
    | [] -> false
    | newest :: _ ->
        let nh = Array.length pcb.Pcb.hops in
        let signer = pcb.Pcb.hops.(nh - 1).Pcb.asn in
        signer_chain_valid signer
        && Signature.verify keystore ~id:(key_id signer)
             ~msg:(Pcb.signable_bytes pcb) ~signature:newest
  in
  let build i = extension outbox.pcbs.(i) outbox.dirs.(i) in
  (* In send order, each receiving store decides on the message; an
     unsigned one is built only if the store keeps it. *)
  let deliver ~now =
    for i = 0 to outbox.len - 1 do
      let pcb = outbox.pcbs.(i) and d = outbox.dirs.(i) in
      let link = d / 2 in
      let lk = Graph.link g link in
      let receiver = if d land 1 = 0 then lk.Graph.b else lk.Graph.a in
      if not cfg.verify_crypto then
        ignore (Beacon_store.offer stores.(receiver) ~now pcb ~link ~build i)
      else if verified pcb then
        ignore (Beacon_store.insert stores.(receiver) ~now pcb)
      else begin
        stats.crypto_failures <- stats.crypto_failures + 1;
        if obs_on && Trace.enabled tr Trace.Warn then
          Trace.emit tr Trace.Warn ~time:now ~category:"beacon"
            ~fields:[ ("receiver", string_of_int receiver) ]
            "pcb rejected: signature verification failed"
      end
    done;
    Array.fill outbox.pcbs 0 outbox.len no_pcb;
    outbox.len <- 0
  in

  let step ~up ~round:r =
    let now = float_of_int r *. cfg.interval in
    if r > 0 && r mod 6 = 0 then begin
      Array.iter (fun s -> Beacon_store.prune_expired s ~now) stores;
      Array.iter (fun st -> Diversity_state.prune st ~now) div_states
    end;
    let select () =
      for x = 0 to n - 1 do
        match cfg.algorithm with
        | Beacon_policy.Baseline -> run_baseline_as ~up ~now x
        | Beacon_policy.Diversity _ | Beacon_policy.Latency_aware _ ->
            run_quality_as ~up ~now x
      done
    in
    Obs.phase obs "beacon.selection_round" select;
    if obs_on && Trace.enabled tr Trace.Info then
      Trace.emit tr Trace.Info ~time:now ~category:"beacon"
        ~fields:
          [
            ("round", string_of_int r);
            ("outbox", string_of_int outbox.len);
            ("total_pcbs", string_of_int stats.total_pcbs);
          ]
        "selection round complete";
    deliver ~now
  in
  {
    eng_graph = g;
    eng_config = cfg;
    eng_stores = stores;
    eng_stats = stats;
    eng_step = step;
  }

let engine ?(obs = Obs.disabled) g cfg =
  let dirs = 2 * Graph.num_links g in
  let stats =
    {
      bytes_on_iface = Array.make dirs 0.0;
      pcbs_on_iface = Array.make dirs 0;
      total_bytes = 0.0;
      total_pcbs = 0;
      crypto_failures = 0;
      rounds = max 1 (int_of_float ((cfg.duration /. cfg.interval) +. 0.5));
    }
  in
  let stores =
    Array.init (Graph.n g) (fun _ -> Beacon_store.create ~limit:cfg.storage_limit)
  in
  make ~obs ~stores ~stats g cfg

let write w e =
  let s = e.eng_stats in
  Snapshot.w_arr w Beacon_store.write e.eng_stores;
  Snapshot.w_arr w Snapshot.w_f64 s.bytes_on_iface;
  Snapshot.w_arr w Snapshot.w_int s.pcbs_on_iface;
  Snapshot.w_f64 w s.total_bytes;
  Snapshot.w_int w s.total_pcbs;
  Snapshot.w_int w s.crypto_failures;
  Snapshot.w_int w s.rounds

let read r g cfg =
  let stores = Snapshot.r_arr r Beacon_store.read in
  if Array.length stores <> Graph.n g then
    Snapshot.corrupt "beaconing snapshot: %d stores for %d ASes"
      (Array.length stores) (Graph.n g);
  let bytes_on_iface = Snapshot.r_arr r Snapshot.r_f64 in
  let pcbs_on_iface = Snapshot.r_arr r Snapshot.r_int in
  let dirs = 2 * Graph.num_links g in
  if Array.length bytes_on_iface <> dirs || Array.length pcbs_on_iface <> dirs
  then Snapshot.corrupt "beaconing snapshot: interface arrays not %d long" dirs;
  let total_bytes = Snapshot.r_f64 r in
  let total_pcbs = Snapshot.r_int r in
  let crypto_failures = Snapshot.r_int r in
  let rounds = Snapshot.r_int r in
  let stats =
    {
      bytes_on_iface;
      pcbs_on_iface;
      total_bytes;
      total_pcbs;
      crypto_failures;
      rounds;
    }
  in
  make ~obs:Obs.disabled ~stores ~stats g cfg

let engine_stores e = e.eng_stores

let engine_stats e = e.eng_stats

let engine_round ?(link_up = fun _ -> true) e ~round =
  e.eng_step ~up:link_up ~round

let engine_outcome e =
  {
    graph = e.eng_graph;
    config = e.eng_config;
    stores = e.eng_stores;
    stats = e.eng_stats;
  }

let run ?(obs = Obs.disabled) g cfg =
  let e = engine ~obs g cfg in
  for r = 0 to e.eng_stats.rounds - 1 do
    engine_round e ~round:r
  done;
  let outcome = engine_outcome e in
  if Obs.on obs then observe obs outcome;
  outcome

let received_bytes_by_as outcome =
  let g = outcome.graph in
  let acc = Array.make (Graph.n g) 0.0 in
  for l = 0 to Graph.num_links g - 1 do
    let lk = Graph.link g l in
    acc.(lk.Graph.b) <- acc.(lk.Graph.b) +. outcome.stats.bytes_on_iface.(2 * l);
    acc.(lk.Graph.a) <- acc.(lk.Graph.a) +. outcome.stats.bytes_on_iface.((2 * l) + 1)
  done;
  acc

let sent_bytes_by_as outcome =
  let g = outcome.graph in
  let acc = Array.make (Graph.n g) 0.0 in
  for l = 0 to Graph.num_links g - 1 do
    let lk = Graph.link g l in
    acc.(lk.Graph.a) <- acc.(lk.Graph.a) +. outcome.stats.bytes_on_iface.(2 * l);
    acc.(lk.Graph.b) <- acc.(lk.Graph.b) +. outcome.stats.bytes_on_iface.((2 * l) + 1)
  done;
  acc

let eligible_iface_bytes outcome =
  let g = outcome.graph in
  let acc = ref [] in
  for v = 0 to Graph.n g - 1 do
    Array.iter
      (fun (h : Graph.half_link) ->
        if eligible_dir outcome.config.scope h then begin
          let lk = Graph.link g h.Graph.via in
          let dir_index = (2 * h.Graph.via) + if lk.Graph.a = v then 0 else 1 in
          acc := outcome.stats.bytes_on_iface.(dir_index) :: !acc
        end)
      (Graph.adj g v)
  done;
  Array.of_list !acc
