(* Tests for the memory-block reuse pass (Reuse).

   Differential design, mirroring the memlint/memtrace suites: the
   reuse variant of every program must compute the same values as the
   reference interpreter, lint clean at every pipeline stage,
   trace-check clean under Memtrace, and keep the same logical event
   skeleton as the optimized variant - while never increasing (and on
   the flagship benchmarks strictly shrinking) the measured memory
   footprint.  A hand-mutated annotation that fakes a coalescing with
   overlapping live ranges must be rejected by Memlint's [reuse]
   rule. *)

open Ir
open Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Build
module ML = Core.Memlint
module MT = Core.Memtrace
module R = Benchsuite.Runner
module Device = Gpu.Device
module Exec = Gpu.Exec

let c = P.const
let n = P.var "n"
let ctx_n2 = Pr.add_range Pr.empty "n" ~lo:(c 2) ()

let fill b name cnt seed =
  B.mapnest b name [ (B.fresh b "i", cnt) ] (fun bb ->
      [ B.fadd bb (Float seed) (Float 0.0) ])

(* a = fill n; b = a + 1; c = b + 2.  [a]'s block is dead once [b] is
   built, so the later allocations can recycle it - the smallest
   program on which same-scope coalescing fires. *)
let chain_prog () =
  B.prog "rcchain" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let a = fill b "as" n 1.0 in
      let iv = B.fresh b "i" in
      let bs =
        B.mapnest b "bs" [ (iv, n) ] (fun bb ->
            [ B.fadd bb (B.index bb a [ P.var iv ]) (Float 1.0) ])
      in
      let jv = B.fresh b "j" in
      let cs =
        B.mapnest b "cs" [ (jv, n) ] (fun bb ->
            [ B.fadd bb (B.index bb bs [ P.var jv ]) (Float 2.0) ])
      in
      let kv = B.fresh b "k" in
      let ds =
        B.mapnest b "ds" [ (kv, n) ] (fun bb ->
            [ B.fadd bb (B.index bb cs [ P.var kv ]) (Float 3.0) ])
      in
      [ Var ds ])

let chain_args nv = [ Value.VInt nv ]

(* a = fill n; b = fill n; c = a + b.  Both fills are live until [c],
   so no legal coalescing exists between them. *)
let overlap_prog () =
  B.prog "rcoverlap" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let a = fill b "as" n 1.0 in
      let bs = fill b "bs" n 2.0 in
      let iv = B.fresh b "i" in
      let cs =
        B.mapnest b "cs" [ (iv, n) ] (fun bb ->
            [
              B.fadd bb
                (B.index bb a [ P.var iv ])
                (B.index bb bs [ P.var iv ]);
            ])
      in
      [ Var cs ])

(* Per-iteration temporary that provably dies inside the loop body:
   the cross-scope strategy hoists its allocation in front of the
   loop. *)
let hoist_prog () =
  B.prog "rchoist" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let init = fill b "acc0" n 0.0 in
      let res =
        B.loop1 b "acc" (arr F64 [ n ]) (Var init) ~bound:(c 4)
          (fun bb ~param ~i:_ ->
            let tmp = fill bb "tmp" n 1.0 in
            let iv = B.fresh bb "i" in
            let acc' =
              B.mapnest bb "acc'" [ (iv, n) ] (fun b3 ->
                  [
                    B.fadd b3
                      (B.index b3 param [ P.var iv ])
                      (B.index b3 tmp [ P.var iv ]);
                  ])
            in
            Var acc')
      in
      [ Var res ])

(* The same shape, but the temporary is carried out of the loop as a
   second result: its live interval escapes the iteration, so hoisting
   must refuse. *)
let escape_prog () =
  B.prog "rcescape" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ]; arr F64 [ n ] ]
    (fun b ->
      let init = fill b "acc0" n 0.0 in
      let init2 = fill b "tmp0" n 0.0 in
      let res =
        B.loop b "st"
          [
            ("acc", arr F64 [ n ], Var init); ("t", arr F64 [ n ], Var init2);
          ]
          ~var:"q" ~bound:(c 4)
          (fun bb ->
            let tmp = fill bb "tmp" n 1.0 in
            let iv = B.fresh bb "i" in
            let acc' =
              B.mapnest bb "acc'" [ (iv, n) ] (fun b3 ->
                  [
                    B.fadd b3
                      (B.index b3 "acc" [ P.var iv ])
                      (B.index b3 tmp [ P.var iv ]);
                  ])
            in
            [ Var acc'; Var tmp ])
      in
      match res with [ a; t ] -> [ Var a; Var t ] | _ -> assert false)

(* Two sibling loops, each with a hoistable temporary: both hoist to
   the same lexical level, where the first hoisted block is dead
   before the second loop starts - the same-scope rule then merges
   them into one physical block. *)
let sibling_prog () =
  B.prog "rcsibling" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let init = fill b "acc0" n 0.0 in
      let mk b0 seed init =
        B.loop1 b0 "acc" (arr F64 [ n ]) (Var init) ~bound:(c 3)
          (fun bb ~param ~i:_ ->
            let tmp = fill bb "tmp" n seed in
            let iv = B.fresh bb "i" in
            let acc' =
              B.mapnest bb "acc'" [ (iv, n) ] (fun b3 ->
                  [
                    B.fadd b3
                      (B.index b3 param [ P.var iv ])
                      (B.index b3 tmp [ P.var iv ]);
                  ])
            in
            Var acc')
      in
      let r1 = mk b 1.0 init in
      let r2 = mk b 2.0 r1 in
      [ Var r2 ])

(* ---------------------------------------------------------------- *)
(* Shared checks                                                     *)
(* ---------------------------------------------------------------- *)

let cost_counters p args = (Exec.run ~mode:Exec.Cost_only p args).Exec.counters
let reuse_ok (v : R.validation) = List.assoc "reuse" v.R.ok
let total_allocs (ct : Device.counters) = ct.Device.allocs + ct.Device.scratch_allocs

(* Compile and return (compiled, opt counters, reuse counters). *)
let compiled_footprints prog args =
  let cpl = Core.Pipeline.compile prog in
  ( cpl,
    cost_counters cpl.Core.Pipeline.opt args,
    cost_counters cpl.Core.Pipeline.reuse args )

(* ---------------------------------------------------------------- *)
(* Same-scope coalescing on the sequential chain                     *)
(* ---------------------------------------------------------------- *)

let test_chain_coalesces () =
  let cpl, opt_c, reuse_c = compiled_footprints (chain_prog ()) (chain_args 8) in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check bool) "coalescing fired" true (st.Core.Reuse.coalesced >= 1);
  Alcotest.(check bool) "size proof discharged" true
    (st.Core.Reuse.size_proofs >= 1);
  Alcotest.(check bool) "fewer allocations" true
    (total_allocs reuse_c < total_allocs opt_c);
  Alcotest.(check bool) "lower peak" true
    (reuse_c.Device.peak_bytes < opt_c.Device.peak_bytes);
  (* the coalesced program still computes a+3 everywhere *)
  let v = R.validate ~compiled:cpl (chain_prog ()) (chain_args 8) in
  Alcotest.(check bool) "chain: reuse = interp" true (reuse_ok v)

(* No legal coalescing on the overlapping program: the pass must
   refuse, and the footprint is simply unchanged. *)
let test_overlap_untouched () =
  let cpl, opt_c, reuse_c =
    compiled_footprints (overlap_prog ()) (chain_args 8)
  in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check int) "nothing coalesced" 0 st.Core.Reuse.coalesced;
  Alcotest.(check int) "allocs unchanged" (total_allocs opt_c)
    (total_allocs reuse_c);
  let v = R.validate ~compiled:cpl (overlap_prog ()) (chain_args 8) in
  Alcotest.(check bool) "overlap: reuse = interp" true (reuse_ok v)

(* ---------------------------------------------------------------- *)
(* Mutation: a coalescing with overlapping live ranges is rejected   *)
(* ---------------------------------------------------------------- *)

(* Hand-forge the illegal version of [overlap_prog]: rebind the second
   fill into the first fill's block.  Both fills stay live until the
   final sum, so Memlint's [reuse] rule must reject the clobber. *)
let test_illegal_coalesce_rejected () =
  let p = Core.Pipeline.to_memory_ir (overlap_prog ()) in
  let r0 = ML.check p in
  Alcotest.(check (list string)) "seed lints clean" []
    (List.map (fun v -> v.ML.detail) (ML.errors r0));
  let fills =
    List.filter_map
      (fun s ->
        match s.exp with
        | EMap _ ->
            List.find_opt
              (fun pe -> is_array_typ pe.pt && pe.pmem <> None)
              s.pat
        | _ -> None)
      p.body.stms
  in
  match fills with
  | pe_a :: pe_b :: _ ->
      pe_b.pmem <- pe_a.pmem;
      let r = ML.check p in
      Alcotest.(check bool) "forged coalescing rejected" true (not (ML.ok r));
      Alcotest.(check bool) "blames [reuse]" true
        (List.exists (fun v -> v.ML.rule = "reuse") (ML.errors r))
  | _ -> Alcotest.fail "expected two annotated fills"

(* ---------------------------------------------------------------- *)
(* Flagship benchmarks: strict footprint reductions                  *)
(* ---------------------------------------------------------------- *)

let test_nw_footprint () =
  let args = Benchsuite.Nw.small_args ~q:3 ~b:4 in
  let cpl, opt_c, reuse_c = compiled_footprints Benchsuite.Nw.prog args in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check bool) "nw: dead existential chains removed" true
    (st.Core.Reuse.chain_links >= 4);
  Alcotest.(check int) "nw: no scratch left" 0 reuse_c.Device.scratch_allocs;
  Alcotest.(check bool) "nw: strictly fewer allocations" true
    (total_allocs reuse_c < total_allocs opt_c);
  Alcotest.(check bool) "nw: strictly lower peak" true
    (reuse_c.Device.peak_bytes < opt_c.Device.peak_bytes)

let test_hotspot_footprint () =
  let args = Benchsuite.Hotspot.small_args ~n:16 ~steps:3 in
  let cpl, opt_c, reuse_c = compiled_footprints Benchsuite.Hotspot.prog args in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check bool) "hotspot: loop double-buffered" true
    (st.Core.Reuse.rotated >= 1);
  Alcotest.(check bool) "hotspot: strictly fewer allocations" true
    (total_allocs reuse_c < total_allocs opt_c);
  Alcotest.(check bool) "hotspot: strictly lower peak" true
    (reuse_c.Device.peak_bytes < opt_c.Device.peak_bytes)

let test_lbm_footprint () =
  let args = Benchsuite.Lbm.small_args ~n:8 ~steps:3 in
  let cpl, opt_c, reuse_c = compiled_footprints Benchsuite.Lbm.prog args in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check bool) "lbm: loop double-buffered" true
    (st.Core.Reuse.rotated >= 1);
  Alcotest.(check bool) "lbm: strictly fewer allocations" true
    (total_allocs reuse_c < total_allocs opt_c);
  Alcotest.(check bool) "lbm: strictly lower peak" true
    (reuse_c.Device.peak_bytes < opt_c.Device.peak_bytes)

(* ---------------------------------------------------------------- *)
(* Cross-scope hoisting                                              *)
(* ---------------------------------------------------------------- *)

let test_hoist_fires () =
  let cpl, opt_c, reuse_c = compiled_footprints (hoist_prog ()) (chain_args 8) in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check bool) "temporary hoisted" true (st.Core.Reuse.hoisted >= 1);
  Alcotest.(check bool) "fewer allocations" true
    (total_allocs reuse_c < total_allocs opt_c);
  Alcotest.(check bool) "lower peak" true
    (reuse_c.Device.peak_bytes < opt_c.Device.peak_bytes);
  let v = R.validate ~compiled:cpl (hoist_prog ()) (chain_args 8) in
  Alcotest.(check bool) "hoist: reuse = interp" true (reuse_ok v)

let test_hoist_refuses_escape () =
  let cpl, opt_c, reuse_c =
    compiled_footprints (escape_prog ()) (chain_args 8)
  in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check int) "escaping temporary not hoisted" 0
    st.Core.Reuse.hoisted;
  Alcotest.(check int) "allocs unchanged" (total_allocs opt_c)
    (total_allocs reuse_c);
  let v = R.validate ~compiled:cpl (escape_prog ()) (chain_args 8) in
  Alcotest.(check bool) "escape: reuse = interp" true (reuse_ok v)

let test_sibling_hoists_coalesce () =
  let cpl, opt_c, reuse_c =
    compiled_footprints (sibling_prog ()) (chain_args 8)
  in
  let st = cpl.Core.Pipeline.reuse_stats in
  Alcotest.(check bool) "both temporaries hoisted" true
    (st.Core.Reuse.hoisted >= 2);
  Alcotest.(check bool) "hoisted siblings coalesced" true
    (st.Core.Reuse.coalesced >= 1);
  Alcotest.(check bool) "fewer allocations" true
    (total_allocs reuse_c < total_allocs opt_c);
  Alcotest.(check bool) "lower peak" true
    (reuse_c.Device.peak_bytes < opt_c.Device.peak_bytes);
  let v = R.validate ~compiled:cpl (sibling_prog ()) (chain_args 8) in
  Alcotest.(check bool) "sibling: reuse = interp" true (reuse_ok v)

(* LUD's interior temporary shrinks with the step index; hoisting
   generalizes its size to the iteration maximum (a prover obligation)
   and the per-step allocations collapse into one block. *)
let test_lud_cross_scope_ab () =
  let args = Benchsuite.Lud.small_args ~q:3 ~b:4 in
  let on = Core.Pipeline.compile Benchsuite.Lud.prog in
  let off =
    Core.Pipeline.compile
      ~reuse:{ Core.Reuse.default_options with Core.Reuse.cross_scope = false }
      Benchsuite.Lud.prog
  in
  Alcotest.(check bool) "lud hoists" true
    (on.Core.Pipeline.reuse_stats.Core.Reuse.hoisted >= 1);
  Alcotest.(check int) "no hoists when disabled" 0
    off.Core.Pipeline.reuse_stats.Core.Reuse.hoisted;
  let c_on = cost_counters on.Core.Pipeline.reuse args in
  let c_off = cost_counters off.Core.Pipeline.reuse args in
  Alcotest.(check bool) "strictly fewer distinct blocks" true
    (c_on.Device.allocs < c_off.Device.allocs);
  Alcotest.(check bool) "peak no worse" true
    (c_on.Device.peak_bytes <= c_off.Device.peak_bytes)

(* ---------------------------------------------------------------- *)
(* qcheck: the full verification stack over random sizes             *)
(* ---------------------------------------------------------------- *)

(* Every generated instance must: lint clean at all six stages,
   trace-check clean on the reuse variant, compute the interpreter's
   values, keep the optimized variant's logical event skeleton, and
   never increase the footprint. *)
let reuse_verified prog args =
  let compiled = Core.Pipeline.compile ~lint:true prog in
  (match Core.Pipeline.first_lint_error compiled.Core.Pipeline.lint with
  | None -> ()
  | Some (stage, v) ->
      QCheck.Test.fail_reportf "memlint (%s): %a" stage ML.pp_violation v);
  let o = R.trace_variant ~variant:"opt" compiled.Core.Pipeline.opt args
  and r = R.trace_variant ~variant:"reuse" compiled.Core.Pipeline.reuse args in
  if not (MT.ok r.R.check) then
    QCheck.Test.fail_reportf "memtrace (reuse): %a" MT.pp_report r.R.check;
  (match Core.Trace.diff o.R.trace r.R.trace with
  | [] -> ()
  | d :: _ -> QCheck.Test.fail_reportf "skeletons diverge: %s" d);
  let expect = Ir.Interp.run compiled.Core.Pipeline.source args in
  let rr = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.reuse args in
  if not (List.for_all2 Value.bit_equal expect rr.Exec.results) then
    QCheck.Test.fail_reportf "reuse variant changed the results";
  let opt_c = cost_counters compiled.Core.Pipeline.opt args in
  let reuse_c = cost_counters compiled.Core.Pipeline.reuse args in
  if total_allocs reuse_c > total_allocs opt_c then
    QCheck.Test.fail_reportf "reuse increased allocations: %d > %d"
      (total_allocs reuse_c) (total_allocs opt_c);
  if reuse_c.Device.peak_bytes > opt_c.Device.peak_bytes then
    QCheck.Test.fail_reportf "reuse increased peak: %g > %g"
      reuse_c.Device.peak_bytes opt_c.Device.peak_bytes;
  true

let prop_nw_reuse_verified =
  QCheck.Test.make ~name:"NW reuse verified (values/lint/trace/footprint)"
    ~count:(Qcount.count 3)
    (QCheck.make
       ~print:(fun (q, b) -> Printf.sprintf "q=%d b=%d" q b)
       QCheck.Gen.(pair (int_range 2 3) (int_range 2 4)))
    (fun (q, b) ->
      reuse_verified Benchsuite.Nw.prog (Benchsuite.Nw.small_args ~q ~b))

let prop_chain_reuse_verified =
  QCheck.Test.make ~name:"chain coalescing verified at random sizes" ~count:(Qcount.count 6)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 12))
    (fun nv -> reuse_verified (chain_prog ()) (chain_args nv))

let prop_hoist_reuse_verified =
  QCheck.Test.make ~name:"cross-scope hoisting verified at random sizes"
    ~count:(Qcount.count 6)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 12))
    (fun nv -> reuse_verified (sibling_prog ()) (chain_args nv))

let tests =
  [
    Alcotest.test_case "chain: same-scope coalescing" `Quick
      test_chain_coalesces;
    Alcotest.test_case "overlap: no illegal coalescing" `Quick
      test_overlap_untouched;
    Alcotest.test_case "mutation: overlapping-live coalesce rejected" `Quick
      test_illegal_coalesce_rejected;
    Alcotest.test_case "nw: footprint strictly shrinks" `Quick
      test_nw_footprint;
    Alcotest.test_case "hotspot: rotation strictly shrinks" `Quick
      test_hotspot_footprint;
    Alcotest.test_case "lbm: rotation strictly shrinks" `Quick
      test_lbm_footprint;
    Alcotest.test_case "hoist: per-iteration temporary lifted" `Quick
      test_hoist_fires;
    Alcotest.test_case "hoist: escaping temporary refused" `Quick
      test_hoist_refuses_escape;
    Alcotest.test_case "hoist: sibling loops share one block" `Quick
      test_sibling_hoists_coalesce;
    Alcotest.test_case "lud: cross-scope A/B" `Quick test_lud_cross_scope_ab;
    QCheck_alcotest.to_alcotest prop_nw_reuse_verified;
    QCheck_alcotest.to_alcotest prop_chain_reuse_verified;
    QCheck_alcotest.to_alcotest prop_hoist_reuse_verified;
  ]
