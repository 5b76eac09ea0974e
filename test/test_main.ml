let () =
  Alcotest.run "ppvi"
    (Test_tensor.suites @ Test_prng.suites @ Test_ad.suites
   @ Test_dist.suites @ Test_adev.suites @ Test_gen.suites @ Test_nn.suites
   @ Test_data.suites @ Test_vi.suites @ Test_baseline.suites
   @ Test_estimated.suites @ Test_dist_extra.suites @ Test_gen_exact.suites @ Test_yolo.suites @ Test_static_checks.suites @ Test_trace.suites @ Test_misc.suites @ Test_guard.suites @ Test_kernel.suites @ Test_check.suites @ Test_batched.suites @ Test_obs.suites @ Test_store.suites @ Test_fault.suites @ Test_chaos.suites @ Test_compile.suites @ Test_shape.suites @ Test_memory.suites @ Test_serve.suites @ Test_golden.suites)
