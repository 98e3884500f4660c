(* Tests for the lookup-cache simulation. *)

let check = Alcotest.check

(* --- Lookup_sim --- *)

let quick p = Lookup_sim.run p

let test_lookup_no_cache () =
  let r =
    quick { Lookup_sim.default_params with Lookup_sim.cache = false; requests = 5000 }
  in
  check Alcotest.int "all misses" 5000 r.Lookup_sim.cache_misses;
  check Alcotest.int "two messages per request" 10000 r.Lookup_sim.upstream_messages;
  Alcotest.(check (float 1e-9)) "zero hit rate" 0.0 r.Lookup_sim.hit_rate

let test_lookup_cache_helps () =
  let base = { Lookup_sim.default_params with Lookup_sim.requests = 20000 } in
  let on = quick base in
  let off = quick { base with Lookup_sim.cache = false } in
  Alcotest.(check bool) "cache cuts upstream traffic" true
    (on.Lookup_sim.upstream_bytes < off.Lookup_sim.upstream_bytes /. 1.5);
  Alcotest.(check bool) "decent hit rate at zipf 1.1" true (on.Lookup_sim.hit_rate > 0.5)

let test_lookup_zipf_skew_monotone () =
  let base = { Lookup_sim.default_params with Lookup_sim.requests = 20000 } in
  let h s = (quick { base with Lookup_sim.zipf_s = s }).Lookup_sim.hit_rate in
  Alcotest.(check bool) "more skew, more hits" true (h 1.4 > h 1.1 && h 1.1 > h 0.8)

let test_lookup_expiry_evicts () =
  let r =
    quick
      {
        Lookup_sim.default_params with
        Lookup_sim.requests = 20000;
        segment_lifetime = 10.0 (* much shorter than the run *);
      }
  in
  Alcotest.(check bool) "expired entries evicted" true (r.Lookup_sim.expired_evictions > 0)

let test_lookup_counts_consistent () =
  let r = quick { Lookup_sim.default_params with Lookup_sim.requests = 12345 } in
  check Alcotest.int "hits + misses = requests" 12345
    (r.Lookup_sim.cache_hits + r.Lookup_sim.cache_misses)

let test_lookup_invalid () =
  Alcotest.check_raises "invalid" (Invalid_argument "Lookup_sim.run: invalid parameters")
    (fun () ->
      ignore (quick { Lookup_sim.default_params with Lookup_sim.n_destinations = 0 }))

let suite =
  [
    ("lookup no cache", `Quick, test_lookup_no_cache);
    ("lookup cache helps", `Quick, test_lookup_cache_helps);
    ("lookup zipf skew monotone", `Quick, test_lookup_zipf_skew_monotone);
    ("lookup expiry evicts", `Quick, test_lookup_expiry_evicts);
    ("lookup counts consistent", `Quick, test_lookup_counts_consistent);
    ("lookup invalid", `Quick, test_lookup_invalid);
  ]
