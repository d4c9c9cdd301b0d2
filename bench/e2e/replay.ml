(* The traced run's stand-in for [Core.Pipeline.compile]: the same
   stage sequence, through the same public entry points, with the same
   clones, recorders and flags, but each call wrapped in a span.  The
   program under test gets no instrumentation of its own.

   Only the clean path is replayed: the fail-safe ladder's containment
   never fires on a correct compile, and a lint error or refuted
   obligation here shows up in the returned reports, where the
   benchmark counts it as a failed operation.  The drift guard in
   [E2e] compares this replay's results with [Pipeline.compile]'s on
   every program, so the two cannot silently diverge. *)

open Core

let sp = Span.span
let clone = Ir.Clone.clone_prog

let compile ~lint ~certify ~fail_safe (p : Ir.Ast.prog) : Pipeline.compiled =
  let reports = ref [] and certs = ref [] in
  let lint_after stage q =
    if lint then
      reports :=
        (stage, sp ("memlint/" ^ stage) (fun () -> Memlint.check ~stage q))
        :: !reports
  in
  let recorder pass = if certify then Some (Certify.recorder ~pass) else None in
  let pre q = if certify then Some (clone q) else None in
  let check_cert pass cert pre post =
    match (cert, pre) with
    | Some r, Some pre ->
        let report =
          sp ("certify/" ^ pass) (fun () ->
              Certify.check ~pass ~pre ~post (Certify.obligations r))
        in
        certs := (pass, report) :: !certs
    | _ -> ()
  in
  let prover0 = (Symalg.Prover.stats ()).budget_exhausted in
  (* the unoptimized rung: Pipeline.to_memory_ir *)
  let unopt =
    let q = clone p in
    let q = sp "memintro" (fun () -> Memintro.introduce q) in
    let q = sp "hoist" (fun () -> Hoist.hoist q) in
    sp "lastuse" (fun () -> ignore (Lastuse.annotate q));
    q
  in
  let opt_base =
    let q0 = clone p in
    let mi_cert = recorder "memintro" in
    let mi_pre = pre q0 in
    let q = sp "memintro" (fun () -> Memintro.introduce ?cert:mi_cert q0) in
    lint_after "memintro" q;
    check_cert "memintro" mi_cert mi_pre q;
    let h_cert = recorder "hoist" in
    let h_pre = pre q in
    let q = sp "hoist" (fun () -> Hoist.hoist ?cert:h_cert q) in
    lint_after "hoist" q;
    check_cert "hoist" h_cert h_pre q;
    sp "lastuse" (fun () -> ignore (Lastuse.annotate q));
    lint_after "lastuse" q;
    q
  in
  let opt, stats, dead_allocs =
    let q = if fail_safe then clone opt_base else opt_base in
    let sc_cert = recorder "shortcircuit" in
    let sc_pre = pre q in
    let q, st =
      sp "shortcircuit" (fun () ->
          Shortcircuit.optimize ~options:Shortcircuit.default_options ~rounds:2
            ?cert:sc_cert q)
    in
    lint_after "shortcircuit" q;
    check_cert "shortcircuit" sc_cert sc_pre q;
    let cl_cert = recorder "cleanup" in
    let cl_pre = pre q in
    let q, n = sp "cleanup" (fun () -> Cleanup.run ?cert:cl_cert q) in
    lint_after "cleanup" q;
    check_cert "cleanup" cl_cert cl_pre q;
    (q, st, n)
  in
  let reuse, reuse_stats, reuse_dead_allocs =
    let q = clone opt in
    let re_cert = recorder "reuse" in
    let re_pre = pre q in
    let q, rst =
      sp "reuse" (fun () ->
          Reuse.optimize ~options:Reuse.default_options ?cert:re_cert q)
    in
    sp "lastuse" (fun () -> ignore (Lastuse.annotate q));
    check_cert "reuse" re_cert re_pre q;
    let clr_cert = recorder "cleanup-reuse" in
    let clr_pre = pre q in
    let q, n = sp "cleanup" (fun () -> Cleanup.run ?cert:clr_cert q) in
    lint_after "reuse" q;
    check_cert "cleanup-reuse" clr_cert clr_pre q;
    (q, rst, n)
  in
  let pack, pack_stats, pack_dead_allocs =
    let q = clone reuse in
    let pk_cert = recorder "pack" in
    let pk_pre = pre q in
    let q, pst =
      sp "pack" (fun () ->
          Pack.optimize ~options:Pack.default_options ?cert:pk_cert q)
    in
    sp "lastuse" (fun () -> ignore (Lastuse.annotate q));
    check_cert "pack" pk_cert pk_pre q;
    let clp_cert = recorder "cleanup-pack" in
    let clp_pre = pre q in
    let q, n = sp "cleanup" (fun () -> Cleanup.run ?cert:clp_cert q) in
    lint_after "pack" q;
    check_cert "cleanup-pack" clp_cert clp_pre q;
    (q, pst, n)
  in
  let prover_exhausted =
    (Symalg.Prover.stats ()).budget_exhausted - prover0
  in
  {
    Pipeline.source = p;
    unopt;
    opt;
    reuse;
    pack;
    stats;
    reuse_stats;
    pack_stats;
    dead_allocs;
    reuse_dead_allocs;
    pack_dead_allocs;
    time_base = 0.;
    time_sc = 0.;
    time_reuse = 0.;
    time_pack = 0.;
    lint = List.rev !reports;
    certs = List.rev !certs;
    recovery =
      (if fail_safe && prover_exhausted > 0 then
         [
           {
             Pipeline.r_fault =
               Fault.Prover_budget { exhausted = prover_exhausted };
             r_pass = "prover";
             r_fallback = "skipped rewrites";
           };
         ]
       else []);
    prover_exhausted;
  }
