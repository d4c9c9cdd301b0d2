(* The compilation pipeline, mirroring the memory stages of the paper's
   Futhark fork:

     source IR
       -> memory introduction (section IV)
       -> allocation hoisting (property 2 of section V)
       -> last-use analysis (footnote 18)
       -> array short-circuiting (section V)

   followed by memory-block reuse and arena packing.  [compile] builds
   the unoptimized (memory-introduced, hoisted) variant once and each
   further variant on a clone of the one below, plus pass statistics
   and compile times, so benchmarks can compare the variants and
   reproduce the compile-time-overhead observation of section V-D.
   [compile ~from] resumes an earlier compile of the same program at
   one rung, rebuilding only that rung and the ones above it. *)

open Ir.Ast

(* One contained fault: what failed, who is blamed, and the variant
   the compile fell back to (see docs/ROBUSTNESS.md). *)
type recovery = { r_fault : Fault.t; r_pass : string; r_fallback : string }

type compiled = {
  source : prog; (* pristine, memory-agnostic *)
  unopt : prog; (* memory-introduced + hoisted *)
  opt : prog; (* additionally short-circuited + dead allocs removed *)
  reuse : prog; (* additionally memory-block reused (third variant) *)
  pack : prog; (* additionally arena-packed (fourth variant) *)
  stats : Shortcircuit.stats;
  reuse_stats : Reuse.stats;
  pack_stats : Pack.stats;
  dead_allocs : int; (* allocations eliminated by short-circuiting *)
  reuse_dead_allocs : int; (* further allocations eliminated by reuse *)
  pack_dead_allocs : int; (* member allocations absorbed into arenas *)
  time_base : float; (* seconds: memory intro + hoisting *)
  time_sc : float; (* seconds: short-circuiting pass alone *)
  time_reuse : float; (* seconds: memory-block reuse pass alone *)
  time_pack : float; (* seconds: the packing pass alone *)
  lint : (string * Memlint.report) list;
      (* one memlint report per pipeline stage, in pass order; empty
         unless compiled with ~lint:true *)
  certs : (string * Certify.report) list;
      (* one checked certificate per pipeline pass (memintro, hoist,
         shortcircuit, cleanup, reuse, cleanup-reuse, pack,
         cleanup-pack), in pass order; empty unless compiled with
         ~certify:true *)
  recovery : recovery list;
      (* contained faults, in containment order; empty unless compiled
         with ~fail_safe:true (or nothing failed) *)
  prover_exhausted : int;
      (* prover queries truncated by the budget during this compile *)
}

(* Memory introduction + hoisting + last-use, unchecked. *)
let to_memory_ir (p : prog) : prog =
  let p = Memintro.introduce (Ir.Clone.clone_prog p) in
  let p = Hoist.hoist p in
  ignore (Lastuse.annotate p);
  p

(* The rungs above [unopt], in ladder order, each named by the pass
   that opens it: that pass's lint stage and certificate are the
   rung's first. *)
let rungs = [ "shortcircuit"; "reuse"; "pack" ]

let compile ?(options = Shortcircuit.default_options)
    ?(reuse = Reuse.default_options) ?(pack = Pack.default_options)
    ?(lint = false) ?(certify = false) ?(fail_safe = false) ?from (p : prog) :
    compiled =
  (* Resuming [~from:(base, pass)]: rung [i] (0 is [unopt], then
     [rungs]) is [base]'s for [i < resume], i.e. every rung below
     [pass]'s.  Only an undegraded base splits by rung: a contained
     fault or an exhausted prover query belongs to no one rung. *)
  let resume =
    match from with
    | None -> 0
    | Some (base, pass) ->
        let fail why = invalid_arg ("Pipeline.compile ~from: " ^ why) in
        let i =
          match List.find_index (String.equal pass) rungs with
          | Some i -> i + 1
          | None -> fail ("unknown pass " ^ pass)
        in
        if base.recovery <> [] || base.prover_exhausted > 0 then
          fail "the base compile degraded";
        if (lint && base.lint = []) || (certify && base.certs = []) then
          fail "the base compile lacks lint reports or certificates";
        i
  in
  let from_base i of_base build =
    match from with
    | Some (base, _) when i < resume -> of_base base
    | _ -> build ()
  in
  (* The kept rungs' lint reports or certificates, reversed like the
     accumulators: the base's entries before the resumed pass's own. *)
  let carried entries =
    match from with
    | None -> []
    | Some (base, pass) ->
        let rec below = function
          | (name, _) :: _ when name = pass -> []
          | e :: rest -> e :: below rest
          | [] -> []
        in
        List.rev (below (entries base))
  in
  let reports = ref (if lint then carried (fun b -> b.lint) else [])
  and certs = ref (if certify then carried (fun b -> b.certs) else [])
  and recov = ref [] in
  let times = ref [] in
  let prover0 = (Symalg.Prover.stats ()).budget_exhausted in
  (* One pass, checked the same way for every pass.  [run] gets the
     pass's certificate recorder (with ~certify:true) and the program;
     its time is recorded under [pass].  With ~lint:true the memory
     linter then checks the stage [lint] names, if any: the first
     stage whose report errors is the pass that introduced the
     violation.  With ~certify:true the independent checker re-derives
     the recorded obligations against a snapshot of the pass's input
     and its output - before any cleanup round, so the claims refer to
     programs in which orphaned allocations still exist.  Under
     ~fail_safe:true a crash, an erroring lint report or a refuted
     obligation raises a blamed [Fault.Fault] for [rung] to contain. *)
  let step ?lint:stage ?(certified = true) pass run q =
    let cert =
      if certify && certified then Some (Certify.recorder ~pass) else None
    in
    let pre = Option.map (fun _ -> Ir.Clone.clone_prog q) cert in
    let t0 = Unix.gettimeofday () in
    let q, x =
      if not fail_safe then run cert q
      else
        try run cert q with
        | Fault.Fault _ as e -> raise e
        | e ->
            Fault.fail (Fault.Pass_crash { pass; exn = Printexc.to_string e })
    in
    times := (pass, Unix.gettimeofday () -. t0) :: !times;
    (match stage with
    | Some stage when lint -> (
        let r = Memlint.check ~stage q in
        reports := (stage, r) :: !reports;
        match Memlint.errors r with
        | v :: _ when fail_safe ->
            Fault.fail
              (Fault.Lint_reject
                 {
                   pass = stage;
                   violation = Fmt.str "%a" Memlint.pp_violation v;
                 })
        | _ -> ())
    | _ -> ());
    (match (cert, pre) with
    | Some r, Some pre -> (
        if Chaos.forging pass then Chaos.forge r;
        let report = Certify.check ~pass ~pre ~post:q (Certify.obligations r) in
        certs := (pass, report) :: !certs;
        match Certify.failures report with
        | c :: _ when fail_safe ->
            Fault.fail
              (Fault.Cert_refuted
                 { pass; obligation = Fmt.str "%a" Certify.pp_checked c })
        | _ -> ())
    | _ -> ());
    (q, x)
  in
  (* [run], then a liveness refresh *)
  let relive run cert q =
    let q, x = run cert q in
    ignore (Lastuse.annotate q);
    (q, x)
  in
  let cleanup cert q = Cleanup.run ?cert q in
  (* The unoptimized variant and floor of the degradation ladder:
     memory introduction, hoisting and last-use, each checked.  Built
     once (or the base's when resuming); every rung above clones it.
     There is no less-optimized memory IR to fall back to, so a fault
     here propagates even under ~fail_safe:true. *)
  let unopt =
    from_base 0
      (fun b -> b.unopt)
      (fun () ->
        let q = Ir.Clone.clone_prog p in
        let q, () =
          step ~lint:"memintro" "memintro"
            (fun cert q -> (Memintro.introduce ?cert q, ()))
            q
        in
        let q, () =
          step ~lint:"hoist" "hoist"
            (fun cert q -> (Hoist.hoist ?cert q, ()))
            q
        in
        fst
          (step ~lint:"lastuse" ~certified:false "lastuse"
             (relive (fun _ q -> (q, ())))
             q))
  in
  (* Rung [i] of the degradation ladder: the base's, read by [kept],
     when resuming above it; otherwise [build] runs on a private clone
     of the rung [below].  Under ~fail_safe:true a fault discards its
     output, records the fault and the rung fallen back to, and the
     compile continues on a fresh clone of [below] with empty stats -
     pack -> reuse -> opt -> unopt, so every variant in [compiled] is
     populated even when its pass failed. *)
  let rung i (fallback, below) fresh_stats ~kept build =
    from_base i kept (fun () ->
        let q = Ir.Clone.clone_prog below in
        if not fail_safe then build q
        else
          try build q
          with Fault.Fault fl ->
            recov :=
              { r_fault = fl; r_pass = Fault.blame fl; r_fallback = fallback }
              :: !recov;
            (Ir.Clone.clone_prog below, fresh_stats (), 0))
  in
  (* second variant: short-circuiting plus a cleanup round removing the
     allocations it orphaned *)
  let opt, stats, dead_allocs =
    rung 1 ("unopt", unopt) Shortcircuit.fresh_stats
      ~kept:(fun b -> (b.opt, b.stats, b.dead_allocs))
      (fun q ->
        let q, st =
          step ~lint:"shortcircuit" "shortcircuit"
            (fun cert q -> Shortcircuit.optimize ~options ?cert q)
            q
        in
        let q, n = step ~lint:"cleanup" "cleanup" cleanup q in
        (q, st, n))
  in
  (* third variant: memory-block reuse, followed by a liveness refresh
     and a cleanup round to collect the allocations the pass orphaned;
     the second cleanup round gets its own pass name so the two rounds
     stay distinguishable in reports and the certificate baseline, and
     the stage is linted after it *)
  let reuse_p, reuse_stats, reuse_dead_allocs =
    rung 2 ("opt", opt) Reuse.fresh_stats
      ~kept:(fun b -> (b.reuse, b.reuse_stats, b.reuse_dead_allocs))
      (fun q ->
        let q, rst =
          step "reuse"
            (relive (fun cert q -> Reuse.optimize ~options:reuse ?cert q))
            q
        in
        let q, n = step ~lint:"reuse" "cleanup-reuse" cleanup q in
        (q, rst, n))
  in
  (* fourth variant: offset-based packing of the blocks surviving
     reuse, again followed by a liveness refresh and a cleanup round
     collecting the member allocations the arenas absorbed *)
  let pack_p, pack_stats, pack_dead_allocs =
    rung 3 ("reuse", reuse_p) Pack.fresh_stats
      ~kept:(fun b -> (b.pack, b.pack_stats, b.pack_dead_allocs))
      (fun q ->
        let q, pst =
          step "pack"
            (relive (fun cert q -> Pack.optimize ~options:pack ?cert q))
            q
        in
        let q, n = step ~lint:"pack" "cleanup-pack" cleanup q in
        (q, pst, n))
  in
  (* rung [i]'s pass times: the base's when kept *)
  let time i kept passes =
    from_base i kept (fun () ->
        List.fold_left
          (fun t (pass, dt) -> if List.mem pass passes then t +. dt else t)
          0. !times)
  in
  let prover_exhausted =
    (Symalg.Prover.stats ()).budget_exhausted - prover0
  in
  if fail_safe && prover_exhausted > 0 then
    recov :=
      {
        r_fault = Fault.Prover_budget { exhausted = prover_exhausted };
        r_pass = "prover";
        r_fallback = "skipped rewrites";
      }
      :: !recov;
  {
    source = p;
    unopt;
    opt;
    reuse = reuse_p;
    pack = pack_p;
    stats;
    reuse_stats;
    pack_stats;
    dead_allocs;
    reuse_dead_allocs;
    pack_dead_allocs;
    time_base =
      time 0 (fun b -> b.time_base) [ "memintro"; "hoist"; "lastuse" ];
    time_sc = time 1 (fun b -> b.time_sc) [ "shortcircuit" ];
    time_reuse = time 2 (fun b -> b.time_reuse) [ "reuse" ];
    time_pack = time 3 (fun b -> b.time_pack) [ "pack" ];
    lint = List.rev !reports;
    certs = List.rev !certs;
    recovery = List.rev !recov;
    prover_exhausted;
  }

(* The first stage whose lint report errors: the pass that introduced
   the first violation. *)
let first_lint_error (stages : (string * Memlint.report) list) :
    (string * Memlint.violation) option =
  List.find_map
    (fun (stage, r) ->
      match Memlint.errors r with v :: _ -> Some (stage, v) | [] -> None)
    stages

(* The first pass whose certificate has a refuted obligation. *)
let first_cert_failure (certs : (string * Certify.report) list) :
    (string * Certify.checked) option =
  List.find_map
    (fun (pass, r) ->
      match Certify.failures r with c :: _ -> Some (pass, c) | [] -> None)
    certs
