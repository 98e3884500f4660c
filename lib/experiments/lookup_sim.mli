(** Pull-based path-lookup simulation (§4.1, "Down-Path Segment
    Lookup").

    The paper argues the lookup infrastructure scales because (a)
    fetches are unicast and amortised by data traffic, (b) segments
    live for hours so caches stay warm, and (c) destination popularity
    is Zipf-distributed, so a small cache covers most queries. This
    simulator quantifies that: endpoints in client ASes resolve
    Zipf-popular destination ASes through their local path server,
    which caches fetched down-segments until expiry and otherwise asks
    the destination's core path server. *)

type params = {
  n_destinations : int;
  zipf_s : float;  (** popularity skew; ~1 for web-like traffic *)
  requests : int;
  cache : bool;
  segment_lifetime : float;  (** seconds a cached segment stays valid *)
}

val default_params : params
(** 1 000 destinations, s = 1.1, 50 000 requests, caching on, 6 h
    lifetimes. Fixed for every run: 20 client ASes, each with its own
    cache, issue 10 requests/s in total, a reply carries 5 four-hop
    segments, and the request stream comes from one fixed seed. *)

type result = {
  params : params;
  cache_hits : int;
  cache_misses : int;
  hit_rate : float;
  upstream_messages : int;  (** query + reply per miss *)
  upstream_bytes : float;
  expired_evictions : int;
}

val run : ?obs:Obs.t -> params -> result
(** With an enabled [obs] context (default {!Obs.disabled}) the run
    adds the result's hits, misses and upstream bytes to the
    [lookup_cache_{hits,misses}_total] and [lookup_upstream_bytes_total]
    counters labeled [{cache; zipf}] and emits [lookup]-category trace
    events (per-miss at [Debug], run summary at [Info]). *)

val sweep : ?obs:Obs.t -> requests:int -> unit -> result list
(** The §4.1 sweep: {!run} with [requests] requests for Zipf skews
    0.8, 1.1 and 1.4, each with the cache on and then off; the other
    parameters are {!default_params}. *)

val print_sweep : result list -> unit
(** A title line, then one row per configuration: the Zipf-sweep
    table. *)
