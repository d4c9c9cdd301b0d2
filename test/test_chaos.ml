(* Tests for the fail-safe pipeline: the fault taxonomy, prover
   budgets, the degradation ladder, executor-side degradation, and the
   chaos fault-injection harness.

   Three angles:

   - prover budgets: budget 0 forces every nonnegativity obligation
     Undecided (a skipped rewrite, never an abort), the exhaustion is
     counted, and the pipeline stays lint-clean;

   - the degradation ladder: an injected pass crash or forged
     certificate is contained, blamed on the injected pass, and the
     compile falls back to the documented rung (with fail-safe off, it
     fails fast); executor faults (OOM, a pool cap refusing live
     memory) degrade to unpooled execution with consistent counters;

   - a qcheck property: random programs with a random fault point in a
     random pass never raise under ~fail_safe:true, compute results
     bit-equal to the reference interpreter, and blame the injected
     layer in the recovery report;

   - resumed compiles: [Pipeline.compile ~from] agrees with a fresh
     compile under every arming the campaign uses, leaves its base
     untouched, and refuses what it cannot resume; the campaign's
     resumed injections agree with fresh re-runs;

   - coverage: the seed-42 campaign over the paper programs fires every
     injection it does not excuse. *)

module P = Symalg.Poly
module Pr = Symalg.Prover
module Value = Ir.Value
module Exec = Gpu.Exec
module Device = Gpu.Device
module Chaos = Core.Chaos
module Fault = Core.Fault
module Pipeline = Core.Pipeline

let c = P.const
let n = P.var "n"
let ctx_n2 = Pr.add_range Pr.empty "n" ~lo:(c 2) ()

(* A chain of [k] map stages over one fill: every adjacent pair is a
   short-circuiting / coalescing candidate, so all three probed passes
   visit statements. *)
let gen_chain = Test_certify.gen_chain

let args_n v = [ Value.VInt v ]

let with_budget b f =
  Pr.set_budget b;
  Fun.protect ~finally:(fun () -> Pr.set_budget Pr.unlimited) f

let pack_matches_interp (cpl : Pipeline.compiled) prog args =
  let expect = Ir.Interp.run prog args in
  let r = Exec.run ~mode:Exec.Full cpl.Pipeline.pack args in
  try List.for_all2 (fun a b -> a = b) expect r.Exec.results
  with Invalid_argument _ -> false

(* ---------------------------------------------------------------- *)
(* Prover budgets                                                    *)
(* ---------------------------------------------------------------- *)

let test_budget_zero_undecided () =
  with_budget 0 (fun () ->
      Pr.reset_stats ();
      Alcotest.(check bool)
        "n + 1 >= 0 undecided at budget 0" false
        (Pr.prove_nonneg ctx_n2 (P.add n P.one));
      Alcotest.(check bool)
        "constant 1 >= 0 undecided at budget 0" false
        (Pr.prove_nonneg ctx_n2 P.one);
      Alcotest.(check bool)
        "exhaustion counted once per query" true
        ((Pr.stats ()).Pr.budget_exhausted = 2))

let test_budget_zero_pipeline_lint_clean () =
  with_budget 0 (fun () ->
      let prog = gen_chain 3 in
      let cpl = Pipeline.compile ~lint:true ~fail_safe:true prog in
      (* undecided proofs downgrade rewrites, never break the IR *)
      (match Pipeline.first_lint_error cpl.Pipeline.lint with
      | None -> ()
      | Some (stage, v) ->
          Alcotest.failf "budget-0 compile lints dirty at %s: %a" stage
            Core.Memlint.pp_violation v);
      Alcotest.(check bool)
        "compile counted exhausted queries" true
        (cpl.Pipeline.prover_exhausted > 0);
      Alcotest.(check bool)
        "exhaustion summarized in the recovery report" true
        (List.exists
           (fun (r : Pipeline.recovery) ->
             Fault.layer r.Pipeline.r_fault = "prover-budget"
             && r.Pipeline.r_fallback = "skipped rewrites")
           cpl.Pipeline.recovery);
      Alcotest.(check bool)
        "budget-0 results bit-equal to the interpreter" true
        (pack_matches_interp cpl prog (args_n 6)))

(* ---------------------------------------------------------------- *)
(* Degradation ladder: compile-side containment                      *)
(* ---------------------------------------------------------------- *)

let test_crash_contained_and_blamed () =
  let prog = gen_chain 3 in
  Chaos.arm_crash ~pass:"reuse" ~at:1;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      let cpl = Pipeline.compile ~fail_safe:true prog in
      match cpl.Pipeline.recovery with
      | [ r ] ->
          Alcotest.(check string) "blamed pass" "reuse" r.Pipeline.r_pass;
          Alcotest.(check string) "fallback rung" "opt" r.Pipeline.r_fallback;
          (match r.Pipeline.r_fault with
          | Fault.Pass_crash { pass; _ } ->
              Alcotest.(check string) "fault names the pass" "reuse" pass
          | f -> Alcotest.failf "unexpected fault %s" (Fault.to_string f));
          Alcotest.(check bool)
            "degraded results bit-equal to the interpreter" true
            (pack_matches_interp cpl prog (args_n 5))
      | rs -> Alcotest.failf "expected one recovery entry, got %d"
                (List.length rs))

let test_forge_contained () =
  let prog = gen_chain 2 in
  Chaos.arm_forge ~pass:"pack";
  Fun.protect ~finally:Chaos.disarm (fun () ->
      let cpl = Pipeline.compile ~certify:true ~fail_safe:true prog in
      Alcotest.(check bool)
        "forged certificate contained as cert-refuted on pack" true
        (List.exists
           (fun (r : Pipeline.recovery) ->
             Fault.layer r.Pipeline.r_fault = "cert-refuted"
             && r.Pipeline.r_pass = "pack"
             && r.Pipeline.r_fallback = "reuse")
           cpl.Pipeline.recovery);
      Alcotest.(check bool)
        "degraded results bit-equal to the interpreter" true
        (pack_matches_interp cpl prog (args_n 4)))

(* The unoptimized variant is the floor of the ladder: a fault while
   building it has no less-optimized memory IR to fall back to, so it
   propagates even under ~fail_safe:true. *)
let test_unopt_floor_propagates () =
  Chaos.arm_forge ~pass:"hoist";
  Fun.protect ~finally:Chaos.disarm (fun () ->
      match
        Pipeline.compile ~certify:true ~fail_safe:true Benchsuite.Hotspot.prog
      with
      | exception Fault.Fault (Fault.Cert_refuted { pass = "hoist"; _ }) -> ()
      | cpl ->
          Alcotest.failf "refuted hoist certificate contained (%d recoveries)"
            (List.length cpl.Pipeline.recovery))

let test_fail_fast_propagates () =
  Chaos.arm_crash ~pass:"shortcircuit" ~at:1;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      Alcotest.check_raises "fail-fast re-raises the pass bug"
        (Chaos.Injected "shortcircuit") (fun () ->
          ignore (Pipeline.compile (gen_chain 2))))

(* ---------------------------------------------------------------- *)
(* Executor-side degradation                                         *)
(* ---------------------------------------------------------------- *)

let test_exec_oom_degrades () =
  let prog = gen_chain 3 in
  let cpl = Pipeline.compile prog in
  let args = args_n 6 in
  let expect = Ir.Interp.run prog args in
  let r = Exec.run ~mode:Exec.Full ~oom_at:1 cpl.Pipeline.unopt args in
  (match r.Exec.faults with
  | [ Fault.Device_oom { at_alloc; _ } ] ->
      Alcotest.(check int) "faulted at the injected allocation" 1 at_alloc
  | fs -> Alcotest.failf "expected one Device_oom, got %d fault(s)"
            (List.length fs));
  Alcotest.(check bool) "pool dropped by the degradation" true
    (r.Exec.pool = None);
  Alcotest.(check bool) "degraded results bit-equal" true
    (List.for_all2 (fun a b -> a = b) expect r.Exec.results)

let test_exec_pool_cap_degrades () =
  let prog = gen_chain 2 in
  let cpl = Pipeline.compile prog in
  let args = args_n 6 in
  let r = Exec.run ~mode:Exec.Full ~pool_cap:8 cpl.Pipeline.unopt args in
  Alcotest.(check bool) "pool-cap fault recorded" true
    (List.exists
       (fun f -> Fault.layer f = "pool-cap")
       r.Exec.faults);
  Alcotest.(check bool) "pool dropped" true (r.Exec.pool = None);
  Alcotest.(check bool) "results bit-equal" true
    (List.for_all2
       (fun a b -> a = b)
       (Ir.Interp.run prog args) r.Exec.results)

(* Counter consistency under injected faults: each device-obtained
   block is freed at most once - by the degradation flush, an unpooled
   free at last use, or the teardown sweep - never double-counted,
   wherever the fault lands in the run. *)
let test_exec_counters_consistent_under_faults () =
  let prog = gen_chain 3 in
  let cpl = Pipeline.compile prog in
  let args = args_n 6 in
  let clean = Exec.run ~mode:Exec.Full cpl.Pipeline.unopt args in
  let total =
    clean.Exec.counters.Device.allocs
    + clean.Exec.counters.Device.scratch_allocs
  in
  Alcotest.(check bool) "program allocates" true (total > 0);
  for site = 1 to total do
    let r =
      Exec.run ~mode:Exec.Full ~oom_at:site cpl.Pipeline.unopt args
    in
    let cnt = r.Exec.counters in
    if cnt.Device.frees > cnt.Device.allocs then
      Alcotest.failf "oom at %d: %d frees for %d allocs (double count)"
        site cnt.Device.frees cnt.Device.allocs;
    Alcotest.(check int)
      (Printf.sprintf "oom at %d: exactly one fault" site)
      1
      (List.length r.Exec.faults)
  done

(* Without the pool every device block must be freed exactly once: a
   clean full run balances its books (the teardown sweep frees what
   the last-use analysis could not prove dead, and nothing twice). *)
let test_exec_unpooled_frees_balance () =
  let prog = gen_chain 3 in
  let cpl = Pipeline.compile prog in
  let r = Exec.run ~mode:Exec.Full ~pool:false cpl.Pipeline.unopt (args_n 6) in
  Alcotest.(check int) "frees = allocs on a clean unpooled run"
    r.Exec.counters.Device.allocs r.Exec.counters.Device.frees

(* ---------------------------------------------------------------- *)
(* qcheck: random program, random fault point                        *)
(* ---------------------------------------------------------------- *)

let injectable_passes = [ "shortcircuit"; "reuse"; "pack" ]

let prop_fail_safe_never_raises =
  QCheck.Test.make
    ~name:"fail-safe: random program + random fault point never raises"
    ~count:(Qcount.count 15)
    (QCheck.make
       ~print:(fun (k, pidx, site, nv) ->
         Printf.sprintf "chain=%d pass=%s site=%d n=%d" k
           (List.nth injectable_passes pidx)
           site nv)
       QCheck.Gen.(
         quad (int_range 1 4) (int_range 0 2) (int_range 1 60)
           (int_range 4 8)))
    (fun (k, pidx, site, nv) ->
      let pass = List.nth injectable_passes pidx in
      let prog = gen_chain k in
      let args = args_n nv in
      Chaos.arm_crash ~pass ~at:site;
      Fun.protect ~finally:Chaos.disarm (fun () ->
          (* invariant 1: the fail-safe compile never raises (any
             exception here fails the property) *)
          let cpl = Pipeline.compile ~fail_safe:true prog in
          (* invariant 2: results bit-equal to the reference *)
          if not (pack_matches_interp cpl prog args) then
            QCheck.Test.fail_report "degraded results diverged";
          (* invariant 3: every recovery entry blames the injected
             layer (the only fault in play is our crash) *)
          List.iter
            (fun (r : Pipeline.recovery) ->
              match r.Pipeline.r_fault with
              | Fault.Pass_crash { pass = p; _ } when p = pass -> ()
              | f ->
                  QCheck.Test.fail_reportf
                    "recovery blames %s, injected %s" (Fault.to_string f)
                    pass)
            cpl.Pipeline.recovery;
          true))

(* ---------------------------------------------------------------- *)
(* Resumed compiles                                                  *)
(* ---------------------------------------------------------------- *)

(* Everything a compile resumed with [~from] must share with a fresh
   one, checked field by field: all but fresh names and times. *)
let check_same what args (fresh : Pipeline.compiled)
    (resumed : Pipeline.compiled) =
  let check name f =
    Alcotest.(check bool) (what ^ ": " ^ name) true (f fresh = f resumed)
  in
  check "stats" (fun c ->
      (c.Pipeline.stats, c.Pipeline.reuse_stats, c.Pipeline.pack_stats));
  check "dead allocs" (fun c ->
      ( c.Pipeline.dead_allocs,
        c.Pipeline.reuse_dead_allocs,
        c.Pipeline.pack_dead_allocs ));
  check "recovery" (fun c ->
      List.map
        (fun (r : Pipeline.recovery) ->
          ( Fault.layer r.Pipeline.r_fault,
            r.Pipeline.r_pass,
            r.Pipeline.r_fallback ))
        c.Pipeline.recovery);
  check "lint stages" (fun c -> List.map fst c.Pipeline.lint);
  check "certificate passes" (fun c -> List.map fst c.Pipeline.certs);
  check "Full-mode results and device counters" (fun c ->
      List.map
        (fun v ->
          let r = Exec.run ~mode:Exec.Full v args in
          (r.Exec.results, r.Exec.counters))
        (List.map snd (Pipeline.variants c)))

(* For every injectable pass, resuming the clean compile at that pass
   equals compiling afresh: unarmed (linted and certified, so the
   carried reports are checked too), with a crash at the pass's first
   statement, and with a forged certificate. *)
let test_resume_equals_fresh (b : Benchsuite.Runner.bench) () =
  let name = b.name and prog = b.prog and args = b.small_args () in
  let base = Pipeline.compile ~lint:true ~certify:true ~fail_safe:true prog in
  let printed () =
    List.map
      (fun (_, p) -> Ir.Pretty.prog_to_string p)
      (Pipeline.variants base)
  in
  let before = printed () in
  List.iter
    (fun pass ->
      let what how = Printf.sprintf "%s from %s, %s" name pass how in
      (* unarmed: the base is itself the fresh compile *)
      check_same (what "unarmed") args base
        (Pipeline.compile ~lint:true ~certify:true ~fail_safe:true
           ~from:(base, pass) prog);
      let armed how ~certify arm =
        let compile ?from () =
          arm ();
          Fun.protect ~finally:Chaos.disarm (fun () ->
              Pipeline.compile ~certify ~fail_safe:true ?from prog)
        in
        check_same (what how) args (compile ()) (compile ~from:(base, pass) ())
      in
      armed "crash at 1" ~certify:false (fun () -> Chaos.arm_crash ~pass ~at:1);
      armed "forged" ~certify:true (fun () -> Chaos.arm_forge ~pass))
    injectable_passes;
  Alcotest.(check (list string))
    "the base's programs are unchanged" before (printed ())

let test_resume_rejects () =
  let prog = gen_chain 2 in
  let base = Pipeline.compile ~fail_safe:true prog in
  let rejects what ?lint ?certify from =
    match Pipeline.compile ?lint ?certify ~fail_safe:true ~from prog with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: resumed without Invalid_argument" what
  in
  rejects "unknown pass" (base, "hoist");
  rejects "unlinted base" ~lint:true (base, "reuse");
  rejects "uncertified base" ~certify:true (base, "pack");
  let crashed =
    Chaos.arm_crash ~pass:"reuse" ~at:1;
    Fun.protect ~finally:Chaos.disarm (fun () ->
        Pipeline.compile ~fail_safe:true prog)
  in
  Alcotest.(check int) "the crash was contained" 1
    (List.length crashed.Pipeline.recovery);
  rejects "base with a recovery" (crashed, "pack");
  let exhausted =
    with_budget 0 (fun () ->
        Pipeline.compile prog)
  in
  Alcotest.(check bool) "the budget was exhausted" true
    (exhausted.Pipeline.prover_exhausted > 0);
  rejects "base with exhausted queries" (exhausted, "pack")

(* ---------------------------------------------------------------- *)
(* The campaign driver                                               *)
(* ---------------------------------------------------------------- *)

let test_chaosdrive_campaign () =
  let prog = gen_chain 2 in
  let camp =
    Benchsuite.Chaosdrive.run ~seed:7 ~rounds:1
      [ ("chain", prog, args_n 5) ]
  in
  Alcotest.(check bool) "campaign holds all three invariants" true
    (Benchsuite.Chaosdrive.ok camp);
  (match camp.Benchsuite.Chaosdrive.benches with
  | [ b ] ->
      Alcotest.(check int) "nine injections per bench per round" 9
        (List.length b.Benchsuite.Chaosdrive.c_injections);
      List.iter
        (fun cls ->
          Alcotest.(check bool)
            (cls ^ " class represented") true
            (List.exists
               (fun (i : Benchsuite.Chaosdrive.injection) ->
                 i.Benchsuite.Chaosdrive.i_class = cls)
               b.Benchsuite.Chaosdrive.c_injections))
        [ "prover-budget"; "pass-crash"; "cert-refuted"; "device-oom";
          "pool-cap" ]
  | bs -> Alcotest.failf "expected one bench, got %d" (List.length bs));
  Alcotest.(check bool) "campaign is reproducible from its seed" true
    (Benchsuite.Chaosdrive.json camp
    = Benchsuite.Chaosdrive.json
        (Benchsuite.Chaosdrive.run ~seed:7 ~rounds:1
           [ ("chain", prog, args_n 5) ]))

(* Every pass-crash and cert-refuted injection of a campaign - the
   ones the campaign resumes from its clean compile - re-run as a fresh
   compile with the same arming must come out the same. *)
let test_campaign_matches_fresh () =
  let open Benchsuite.Chaosdrive in
  List.iter
    (fun (name, prog, args) ->
      let camp = run ~seed:7 ~rounds:2 [ (name, prog, args) ] in
      let resumed =
        List.concat_map
          (fun b ->
            List.filter
              (fun i -> List.mem i.i_class [ "pass-crash"; "cert-refuted" ])
              b.c_injections)
          camp.benches
      in
      Alcotest.(check int) (name ^ ": six per round") 12 (List.length resumed);
      List.iter
        (fun i ->
          let certify = i.i_class = "cert-refuted" in
          if certify then Chaos.arm_forge ~pass:i.i_pass
          else Chaos.arm_crash ~pass:i.i_pass ~at:i.i_site;
          let cpl =
            Fun.protect ~finally:Chaos.disarm (fun () ->
                Pipeline.compile ~certify ~fail_safe:true prog)
          in
          let rcv =
            List.find_opt
              (fun (r : Pipeline.recovery) ->
                Fault.layer r.Pipeline.r_fault = i.i_class
                && r.Pipeline.r_pass = i.i_pass)
              cpl.Pipeline.recovery
          in
          (* a forged obligation always fires; a crash fired iff the
             fail-safe compile contained it *)
          let fired = certify || rcv <> None in
          let what =
            Printf.sprintf "%s %s/%s@%d" name i.i_class i.i_pass i.i_site
          in
          Alcotest.(check bool) (what ^ ": fired") fired i.i_fired;
          Alcotest.(check bool)
            (what ^ ": recovered")
            ((not fired) || rcv <> None)
            i.i_recovered;
          Alcotest.(check string)
            (what ^ ": fallback")
            (match rcv with Some r -> r.Pipeline.r_fallback | None -> "")
            i.i_fallback;
          Alcotest.(check bool)
            (what ^ ": bit-equal")
            (pack_matches_interp cpl prog args)
            i.i_bit_equal)
        resumed)
    [
      ("chain", gen_chain 2, args_n 5);
      ( "hotspot",
        Benchsuite.Hotspot.prog,
        Benchsuite.Hotspot.bench.small_args () );
    ]

(* The seed-42 campaign over the seven paper programs at the small
   arguments [repro chaos] uses: every injection fires, save a budget
   above 0 (it may exceed what a compile needs) and the pairs the
   campaign lists as not covered - and those pairs still do not fire, so
   the list names no pair the campaign does cover. *)
let test_campaign_fires () =
  let open Benchsuite.Chaosdrive in
  let camp =
    run ~seed:42 ~rounds:1
      (List.map
         (fun { Benchsuite.Runner.name; prog; small_args; _ } ->
           (name, prog, small_args ()))
         Benchsuite.Suite.all)
  in
  Alcotest.(check bool) "campaign holds all three invariants" true (ok camp);
  Alcotest.(check (list string)) "every injection fired" []
    (List.map
       (fun (bench, i) ->
         Printf.sprintf "%s %s/%s@%d" bench i.i_class i.i_pass i.i_site)
       (unfired camp));
  List.iter
    (fun (bench, cls, _) ->
      Alcotest.(check bool)
        (bench ^ " " ^ cls ^ " is still not covered")
        true
        (List.exists
           (fun b ->
             b.c_bench = bench
             && List.exists
                  (fun i -> i.i_class = cls && not i.i_fired)
                  b.c_injections)
           camp.benches))
    not_covered

let tests =
  [
    Alcotest.test_case "budget 0: every obligation Undecided" `Quick
      test_budget_zero_undecided;
    Alcotest.test_case "budget 0: pipeline stays lint-clean" `Quick
      test_budget_zero_pipeline_lint_clean;
    Alcotest.test_case "injected crash contained and blamed" `Quick
      test_crash_contained_and_blamed;
    Alcotest.test_case "forged certificate contained" `Quick
      test_forge_contained;
    Alcotest.test_case "fail-fast propagates the pass bug" `Quick
      test_fail_fast_propagates;
    Alcotest.test_case "unopt floor: a hoist fault propagates" `Quick
      test_unopt_floor_propagates;
    Alcotest.test_case "executor OOM degrades to unpooled" `Quick
      test_exec_oom_degrades;
    Alcotest.test_case "strict pool cap degrades to unpooled" `Quick
      test_exec_pool_cap_degrades;
    Alcotest.test_case "counters consistent under injected faults" `Quick
      test_exec_counters_consistent_under_faults;
    Alcotest.test_case "unpooled frees balance allocs" `Quick
      test_exec_unpooled_frees_balance;
    QCheck_alcotest.to_alcotest prop_fail_safe_never_raises;
    Alcotest.test_case "chaosdrive campaign on a generated program" `Quick
      test_chaosdrive_campaign;
    Alcotest.test_case "resumed compile equals fresh: hotspot" `Quick
      (test_resume_equals_fresh Benchsuite.Hotspot.bench);
    Alcotest.test_case "resumed compile equals fresh: nw" `Quick
      (test_resume_equals_fresh Benchsuite.Nw.bench);
    Alcotest.test_case "resumed compile equals fresh: lud" `Quick
      (test_resume_equals_fresh Benchsuite.Lud.bench);
    Alcotest.test_case "resume rejects bad bases and passes" `Quick
      test_resume_rejects;
    Alcotest.test_case "campaign injections equal fresh compiles" `Quick
      test_campaign_matches_fresh;
    Alcotest.test_case "seed-42 campaign: every injection fires" `Quick
      test_campaign_fires;
  ]
