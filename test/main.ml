let () =
  Alcotest.run "codetomo"
    [
      ("rng", Test_rng.suite);
      ("dist", Test_dist.suite);
      ("summary", Test_summary.suite);
      ("metrics", Test_metrics.suite);
      ("linalg", Test_linalg.suite);
      ("markov", Test_markov.suite);
      ("isa", Test_isa.suite);
      ("machine", Test_machine.suite);
      ("cfg", Test_cfg.suite);
      ("lang", Test_lang.suite);
      ("env", Test_env.suite);
      ("node", Test_node.suite);
      ("profilekit", Test_profilekit.suite);
      ("transport", Test_transport.suite);
      ("tomo", Test_tomo.suite);
      ("sanitize", Test_sanitize.suite);
      ("em_kernels", Test_em_kernels.suite);
      ("layout", Test_layout.suite);
      ("workloads", Test_workloads.suite);
      ("report", Test_report.suite);
      ("pipeline", Test_pipeline.suite);
      ("par", Test_par.suite);
      ("extensions", Test_extensions.suite);
      ("network", Test_network.suite);
      ("binary", Test_binary.suite);
      ("energy", Test_energy.suite);
      ("fuzz", Test_fuzz.suite);
      ("wire", Test_wire.suite);
      ("fleet", Test_fleet.suite);
      ("sim_golden", Test_sim_golden.suite);
      ("scorer", Test_scorer.suite);
    ]
