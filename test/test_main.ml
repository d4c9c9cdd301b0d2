(* Aggregated test runner: one Alcotest suite per library. *)

let () =
  Alcotest.run "futhark-mem"
    [
      ("symalg", Test_symalg.tests);
      ("lmad", Test_lmad.tests);
      ("nonoverlap", Test_nonoverlap_internals.tests);
      ("ir", Test_ir.tests);
      ("core", Test_core.tests);
      ("memlint", Test_memlint.tests);
      ("memtrace", Test_memtrace.tests);
      ("reuse", Test_reuse.tests);
      ("frontend", Test_frontend.tests);
      ("gpu", Test_gpu.tests);
      ("pool", Test_pool.tests);
      ("bench", Test_bench.tests);
      ("certify", Test_certify.tests);
      ("pack", Test_pack.tests);
      ("chaos", Test_chaos.tests);
      ("fv", Test_fv.tests);
      ("lastuse", Test_lastuse.tests);
    ]
