type params = {
  n_destinations : int;
  zipf_s : float;
  requests : int;
  cache : bool;
  segment_lifetime : float;
}

(* 20 client ASes, each running its own cache, share 10 requests/s;
   a reply carries 5 four-hop segments. Every run draws from one seed. *)
let client_ases = 20
let request_rate = 10.0
let segments_per_reply = 5
let seed = 0x100C07L

let default_params =
  {
    n_destinations = 1000;
    zipf_s = 1.1;
    requests = 50_000;
    cache = true;
    segment_lifetime = 21_600.0;
  }

type result = {
  params : params;
  cache_hits : int;
  cache_misses : int;
  hit_rate : float;
  upstream_messages : int;
  upstream_bytes : float;
  expired_evictions : int;
}

let run ?(obs = Obs.disabled) p =
  if p.n_destinations < 1 || p.requests < 0 then
    invalid_arg "Lookup_sim.run: invalid parameters";
  let obs_on = Obs.on obs in
  let tr = Obs.trace obs in
  let rng = Rng.create seed in
  let zipf = Zipf.create ~n:p.n_destinations ~s:p.zipf_s in
  (* Per client AS: destination -> cached-until. *)
  let caches = Array.init client_ases (fun _ -> Hashtbl.create 256) in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let upstream_bytes = ref 0.0 in
  let reply_bytes =
    float_of_int (16 + (segments_per_reply * Wire.pcb_bytes ~hops:4))
  in
  let query_bytes = 64.0 in
  for i = 0 to p.requests - 1 do
    let now = float_of_int i /. request_rate in
    let client = Rng.int rng client_ases in
    let dst = Zipf.sample zipf rng in
    let cached =
      p.cache
      &&
      match Hashtbl.find_opt caches.(client) dst with
      | Some until when now < until -> true
      | Some _ ->
          Hashtbl.remove caches.(client) dst;
          incr evictions;
          false
      | None -> false
    in
    if cached then incr hits
    else begin
      incr misses;
      upstream_bytes := !upstream_bytes +. query_bytes +. reply_bytes;
      if obs_on && Trace.enabled tr Trace.Debug then
        Trace.emit tr Trace.Debug ~time:now ~category:"lookup"
          ~fields:
            [ ("client", string_of_int client); ("dst", string_of_int dst) ]
          "cache miss, upstream fetch";
      if p.cache then
        Hashtbl.replace caches.(client) dst (now +. p.segment_lifetime)
    end
  done;
  if obs_on && Trace.enabled tr Trace.Info then
    Trace.emit tr Trace.Info
      ~time:(float_of_int p.requests /. request_rate)
      ~category:"lookup"
      ~fields:
        [
          ("requests", string_of_int p.requests);
          ("hits", string_of_int !hits);
          ("misses", string_of_int !misses);
          ("evictions", string_of_int !evictions);
        ]
      "lookup simulation complete";
  let r =
    {
      params = p;
      cache_hits = !hits;
      cache_misses = !misses;
      hit_rate = float_of_int !hits /. float_of_int (max 1 p.requests);
      upstream_messages = 2 * !misses;
      upstream_bytes = !upstream_bytes;
      expired_evictions = !evictions;
    }
  in
  if obs_on then begin
    let reg = Obs.registry obs in
    let labels =
      [
        ("cache", if p.cache then "on" else "off");
        ("zipf", Printf.sprintf "%.2f" p.zipf_s);
      ]
    in
    Registry.add reg ~labels "lookup_cache_hits_total" (float_of_int r.cache_hits);
    Registry.add reg ~labels "lookup_cache_misses_total"
      (float_of_int r.cache_misses);
    Registry.add reg ~labels "lookup_upstream_bytes_total" r.upstream_bytes
  end;
  r

let sweep ?obs ~requests () =
  List.concat_map
    (fun zipf_s ->
      List.map
        (fun cache -> run ?obs { default_params with zipf_s; cache; requests })
        [ true; false ])
    [ 0.8; 1.1; 1.4 ]

let print_sweep results =
  print_endline
    "Down-path segment lookup with caching under Zipf popularity (section \
     4.1):";
  Table.print
    ~header:
      [ "zipf s"; "cache"; "requests"; "hit rate"; "upstream msgs"; "upstream bytes"; "msgs/request" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Printf.sprintf "%.2f" r.params.zipf_s;
             (if r.params.cache then "on" else "off");
             string_of_int r.params.requests;
             Printf.sprintf "%.1f%%" (100.0 *. r.hit_rate);
             string_of_int r.upstream_messages;
             Printf.sprintf "%.3g" r.upstream_bytes;
             Printf.sprintf "%.3f"
               (float_of_int r.upstream_messages /. float_of_int (max 1 r.params.requests));
           ])
         results)
