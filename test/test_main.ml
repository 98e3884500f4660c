let () =
  Alcotest.run "scion"
    [
      ("util", Test_util.suite);
      ("crypto", Test_crypto.suite);
      ("types", Test_types.suite);
      ("topology", Test_topology.suite);
      ("obs", Test_obs.suite);
      ("runner", Test_runner.suite);
      ("core", Test_core.suite);
      ("bgp", Test_bgp.suite);
      ("bgp-sim", Test_bgp_sim.suite);
      ("latency", Test_latency.suite);
      ("wire-lookup", Test_wire_lookup.suite);
      ("pcb-codec", Test_pcb_codec.suite);
      ("analysis", Test_analysis.suite);
      ("segments", Test_segments.suite);
      ("faults", Test_faults.suite);
      ("supervise", Test_supervise.suite);
      ("dataplane", Test_dataplane.suite);
      ("traffic", Test_traffic.suite);
      ("deployment", Test_deployment.suite);
      ("experiments", Test_experiments.suite);
    ]
