(* Tests for the dynamic trace cross-checker (Memtrace).

   Differential design, mirroring test_memlint: every honestly traced
   execution - synthetic programs and the whole benchmark suite - must
   check clean, and each injected defect must be caught by the right
   rule family:

   - an executor bug shifting kernel writes     -> footprint
     (invisible to the static linter: the annotations are untouched)
   - an elided copy that was not a no-op        -> circuit
   - reading dead contents before an overwrite  -> last-use

   plus qcheck properties running the full static + dynamic
   verification stack over randomly sized programs. *)

open Ir
open Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Build
module Exec = Gpu.Exec
module Trace = Core.Trace
module MT = Core.Memtrace
module ML = Core.Memlint
module Runner = Benchsuite.Runner

let c = P.const
let n = P.var "n"
let ctx_n2 = Pr.add_range Pr.empty "n" ~lo:(c 2) ()

let fill b name cnt seed =
  B.mapnest b name [ (B.fresh b "i", cnt) ] (fun bb ->
      [ B.fadd bb (Float seed) (Float 0.0) ])

(* bs = fill n; xss[0:n] = bs.  Short-circuiting rebases the fill into
   the *first* half of xss's block, so the off-by-one write mutation
   lands on offset n: still inside the 2n-element block (no executor
   bounds error) but outside the declared [0, n) region - a bug only
   the dynamic footprint check can see. *)
let circuit_prog () =
  B.prog "mtcirc" ~ctx:ctx_n2
    ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ P.scale 2 n ]) ]
    ~ret:[ arr F64 [ P.scale 2 n ] ]
    (fun b ->
      let bs = fill b "bs" n 7.0 in
      [
        Var
          (B.bind b "xss2"
             (EUpdate
                {
                  dst = "xss";
                  slc =
                    STriplet
                      [ SRange { start = P.zero; len = n; step = P.one } ];
                  src = SrcArr bs;
                }));
      ])

let circuit_args nv =
  [
    Ir.Value.VInt nv;
    Ir.Value.VArr
      (Ir.Value.of_floats [ 2 * nv ]
         (Array.init (2 * nv) (fun i -> float_of_int i)));
  ]

let traced ?mutation (p : prog) args =
  let r = Exec.run ~mode:Exec.Full ~trace:true ~variant:"opt" ?mutation p args in
  MT.check (Option.get r.Exec.trace)

let rules r = List.map (fun v -> v.MT.rule) r.MT.violations

let details r =
  List.map (fun v -> Fmt.str "%a" MT.pp_violation v) r.MT.violations

(* ---------------------------------------------------------------- *)
(* The honest run of the circuit program is clean (and circuits)     *)
(* ---------------------------------------------------------------- *)

let test_circuit_clean () =
  let compiled = Core.Pipeline.compile (circuit_prog ()) in
  Alcotest.(check bool)
    "the circuit fires" true
    (compiled.Core.Pipeline.stats.Core.Shortcircuit.succeeded > 0);
  let traces =
    Runner.trace_check ~compiled (circuit_prog ()) (circuit_args 6)
  in
  List.iter
    (fun (v, (t : Runner.traced)) ->
      Alcotest.(check (list string)) (v ^ " trace clean") []
        (details t.Runner.check))
    traces;
  let o = List.assoc "opt" traces in
  Alcotest.(check bool) "opt elided the update copy" true
    (o.Runner.check.MT.elided > 0);
  Alcotest.(check bool) "offsets were actually enumerated" true
    (o.Runner.check.MT.offsets_checked > 0);
  (* a cost-only run samples its kernels and could not enumerate them,
     so it refuses to be traced rather than hand memtrace nothing *)
  Alcotest.check_raises "a cost-only run refuses a trace"
    (Invalid_argument "Exec.run: a traced run must be a Full run")
    (fun () ->
      ignore
        (Exec.run ~mode:Exec.Cost_only ~trace:true compiled.Core.Pipeline.opt
           (circuit_args 6)))

(* ---------------------------------------------------------------- *)
(* Mutation: off-by-one kernel writes - static-clean, dynamic-caught *)
(* ---------------------------------------------------------------- *)

let test_off_by_one_write () =
  let compiled = Core.Pipeline.compile ~lint:true (circuit_prog ()) in
  (* the mutation lives in the executor, not the program: every static
     stage still lints clean *)
  (match Core.Pipeline.first_lint_error compiled.Core.Pipeline.lint with
  | None -> ()
  | Some (stage, v) ->
      Alcotest.failf "static lint should stay clean, %s raised %s" stage
        (Fmt.str "%a" ML.pp_violation v));
  let r =
    traced ~mutation:Exec.Off_by_one_write compiled.Core.Pipeline.opt
      (circuit_args 6)
  in
  Alcotest.(check bool) "mutated run is rejected" true (not (MT.ok r));
  Alcotest.(check bool) "blamed on the footprint rule" true
    (List.mem "footprint" (rules r))

(* ---------------------------------------------------------------- *)
(* Synthetic traces: circuit and last-use defects                    *)
(* ---------------------------------------------------------------- *)

let region coff len : Trace.clmad list = [ { coff; cdims = [ (len, 1) ] } ]

let test_bogus_elision () =
  let t = Trace.create ~program:"synthetic" ~variant:"opt" () in
  Trace.alloc t ~bid:0 ~name:"a" ~elems:8 ~in_kernel:false;
  (* elided, but source and destination images differ by one element *)
  Trace.copy t ~src:0 ~dst:0 ~shape:[ 4 ] ~six:(region 0 4) ~dix:(region 1 4)
    ~bytes:32.0 ~elided:true ~in_kernel:false;
  let r = MT.check t in
  Alcotest.(check (list string)) "blames circuit" [ "circuit" ] (rules r);
  (* a performed self-copy between those same overlapping regions is
     equally wrong *)
  let t2 = Trace.create ~program:"synthetic" ~variant:"opt" () in
  Trace.alloc t2 ~bid:0 ~name:"a" ~elems:8 ~in_kernel:false;
  Trace.copy t2 ~src:0 ~dst:0 ~shape:[ 4 ] ~six:(region 0 4)
    ~dix:(region 1 4) ~bytes:32.0 ~elided:false ~in_kernel:false;
  Alcotest.(check (list string))
    "overlapping self-copy blames circuit" [ "circuit" ]
    (rules (MT.check t2));
  (* disjoint halves are fine *)
  let t3 = Trace.create ~program:"synthetic" ~variant:"opt" () in
  Trace.alloc t3 ~bid:0 ~name:"a" ~elems:8 ~in_kernel:false;
  Trace.copy t3 ~src:0 ~dst:0 ~shape:[ 4 ] ~six:(region 0 4)
    ~dix:(region 4 4) ~bytes:32.0 ~elided:false ~in_kernel:false;
  Alcotest.(check (list string)) "disjoint self-copy clean" []
    (rules (MT.check t3))

let whole_block fvar fbid : Trace.footprint =
  { Trace.fvar; fbid; fregion = None }

let synthetic_kernel t ~label ~reads ~writes ~declared_writes ~declared_reads
    =
  Trace.kernel_begin t ~label ~threads:1 ~declared_writes ~declared_reads;
  List.iter (fun (bid, off) -> Trace.kernel_read t ~bid ~off) reads;
  List.iter (fun (bid, off) -> Trace.kernel_write t ~bid ~off) writes;
  Trace.kernel_end t ~read_bytes:0.0 ~write_bytes:0.0

let test_read_after_last_use () =
  let t = Trace.create ~program:"synthetic" ~variant:"opt" () in
  Trace.alloc t ~bid:0 ~name:"a" ~elems:4 ~in_kernel:false;
  synthetic_kernel t ~label:"produce" ~reads:[] ~writes:[ (0, 0) ]
    ~declared_writes:[ whole_block "a" 0 ] ~declared_reads:[];
  Trace.last_use t ~var:"a" ~bid:0;
  synthetic_kernel t ~label:"zombie" ~reads:[ (0, 0) ] ~writes:[]
    ~declared_writes:[] ~declared_reads:[ whole_block "a" 0 ];
  let r = MT.check t in
  Alcotest.(check (list string)) "blames last-use" [ "last-use" ] (rules r);
  (* same trace, but a kernel overwrites the block first: the reuse
     short-circuiting arranges is legal *)
  let t2 = Trace.create ~program:"synthetic" ~variant:"opt" () in
  Trace.alloc t2 ~bid:0 ~name:"a" ~elems:4 ~in_kernel:false;
  synthetic_kernel t2 ~label:"produce" ~reads:[] ~writes:[ (0, 0) ]
    ~declared_writes:[ whole_block "a" 0 ] ~declared_reads:[];
  Trace.last_use t2 ~var:"a" ~bid:0;
  synthetic_kernel t2 ~label:"recycle" ~reads:[] ~writes:[ (0, 0) ]
    ~declared_writes:[ whole_block "b" 0 ] ~declared_reads:[];
  synthetic_kernel t2 ~label:"consume" ~reads:[ (0, 0) ] ~writes:[]
    ~declared_writes:[] ~declared_reads:[ whole_block "b" 0 ];
  Alcotest.(check (list string)) "revived block reads clean" []
    (rules (MT.check t2))

(* ---------------------------------------------------------------- *)
(* The whole benchmark suite trace-checks clean, every variant        *)
(* ---------------------------------------------------------------- *)

let test_benchmarks_trace_clean () =
  List.iter
    (fun { Runner.name; prog; small_args; _ } ->
      List.iter
        (fun (v, (t : Runner.traced)) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s trace clean" name v)
            [] (details t.Runner.check))
        (Runner.trace_check prog (small_args ())))
    Benchsuite.Suite.all

(* ---------------------------------------------------------------- *)
(* qcheck: the full verification stack over random sizes             *)
(* ---------------------------------------------------------------- *)

(* Every generated instance runs memlint over all pipeline stages and
   the memtrace cross-check over every executed variant. *)
let verified_pipeline prog args =
  let compiled = Core.Pipeline.compile ~lint:true prog in
  (match Core.Pipeline.first_lint_error compiled.Core.Pipeline.lint with
  | None -> ()
  | Some (stage, v) ->
      QCheck.Test.fail_reportf "memlint (%s): %a" stage ML.pp_violation v);
  List.iter
    (fun (which, (t : Runner.traced)) ->
      if not (MT.ok t.Runner.check) then
        QCheck.Test.fail_reportf "memtrace (%s): %a" which MT.pp_report
          t.Runner.check)
    (Runner.trace_check ~compiled prog args);
  true

let prop_nw_verified =
  QCheck.Test.make ~name:"NW statically and dynamically verified" ~count:(Qcount.count 4)
    (QCheck.make
       ~print:(fun (q, b) -> Printf.sprintf "q=%d b=%d" q b)
       QCheck.Gen.(pair (int_range 2 3) (int_range 2 4)))
    (fun (q, b) ->
      verified_pipeline Benchsuite.Nw.prog (Benchsuite.Nw.small_args ~q ~b))

let prop_circuit_verified =
  QCheck.Test.make ~name:"update circuit statically and dynamically verified"
    ~count:(Qcount.count 6)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 12))
    (fun nv -> verified_pipeline (circuit_prog ()) (circuit_args nv))

let tests =
  [
    Alcotest.test_case "circuit program traces clean" `Quick
      test_circuit_clean;
    Alcotest.test_case "mutation: off-by-one kernel write" `Quick
      test_off_by_one_write;
    Alcotest.test_case "synthetic: bogus elision" `Quick test_bogus_elision;
    Alcotest.test_case "synthetic: read after last use" `Quick
      test_read_after_last_use;
    Alcotest.test_case "benchmarks trace clean (every variant)" `Slow
      test_benchmarks_trace_clean;
    QCheck_alcotest.to_alcotest prop_nw_verified;
    QCheck_alcotest.to_alcotest prop_circuit_verified;
  ]
