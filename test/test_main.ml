(* Aggregated test runner: `dune runtest`. *)

let () =
  (* Regenerating the golden-digest table is a deliberate act, never a
     side effect of a test run. *)
  Option.iter
    (fun path ->
      Test_golden.write path;
      exit 0)
    (Sys.getenv_opt "RESIM_GOLDEN_WRITE");
  Alcotest.run "resim"
    (List.concat
       [ Test_isa.suite;
         Test_bpred.suite;
         Test_cache.suite;
         Test_trace.suite;
         Test_fpga.suite;
         Test_core.suite;
         Test_event.suite;
         Test_obs.suite;
         Test_tracegen.suite;
         Test_baseline.suite;
         Test_workloads.suite;
         Test_reports.suite;
         Test_sweep.suite;
         Test_serve.suite;
         Test_check.suite;
         Test_dsafe.suite;
         Test_fault.suite;
         Test_sample.suite;
         Test_spec.suite;
         Test_golden.suite;
         Test_extensions.suite;
         Test_frontier.suite;
         Test_consistency.suite;
         Test_tools.suite ])
