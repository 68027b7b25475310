let () =
  Alcotest.run "asman"
    [
      ("rng", Test_rng.suite);
      ("units", Test_units.suite);
      ("engine", Test_engine.suite);
      ("equeue", Test_equeue.suite);
      ("stats", Test_stats.suite);
      ("hw", Test_hw.suite);
      ("vmm-units", Test_vmm_units.suite);
      ("learn", Test_learn.suite);
      ("guest-units", Test_guest_units.suite);
      ("monitor", Test_monitor.suite);
      ("kernel-exec", Test_kernel_exec.suite);
      ("workloads", Test_workloads.suite);
      ("scenario", Test_scenario.suite);
      ("sched", Test_sched.suite);
      ("integration", Test_integration.suite);
      ("pool", Test_pool.suite);
      ("faults", Test_faults.suite);
      ("experiments", Test_experiments.suite);
      ("oov-ablations", Test_oov.suite);
      ("models", Test_models.suite);
      ("properties", Test_properties.suite);
      ("obs", Test_obs.suite);
      ("check", Test_check.suite);
      ("shard", Test_fabric.suite);
      ("hosts", Test_hosts.suite);
      ("decouple", Test_decouple.suite);
      ("alloc", Test_alloc.suite);
      ("cluster", Test_cluster.suite);
      ("registry", Test_registry.suite);
      ("render", Test_render.suite);
    ]
