(* Tests for the memory-IR verifier (Memlint).

   Differential design: every seed program - hand-built scenarios and
   the benchmark suite - must lint clean at every pipeline stage, and
   each hand-injected annotation bug must be rejected with the right
   rule:

   - dropping an allocation            -> alloc-dominance
   - redirecting a result's block      -> layout
   - widening a stride out of bounds   -> footprint
   - reading a circuited source again  -> last-use
   - collapsing per-thread slots       -> write-race *)

open Ir
open Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Build
module L = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module ML = Core.Memlint

let c = P.const
let n = P.var "n"
let ctx_n2 = Pr.add_range Pr.empty "n" ~lo:(c 2) ()

let fill b name cnt seed =
  B.mapnest b name [ (B.fresh b "i", cnt) ] (fun bb ->
      [ B.fadd bb (Float seed) (Float 0.0) ])

(* xs = fill n, returned; the smallest allocating program. *)
let base_fill () =
  B.prog "mlfill" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b -> [ Var (fill b "xs" n 1.0) ])

(* as = fill (n,n); bs = transpose as, returned. *)
let base_transpose () =
  B.prog "mltr" ~ctx:ctx_n2
    ~params:[ pat_elem "n" i64; pat_elem "ys" (arr F64 [ n; n ]) ]
    ~ret:[ arr F64 [ n; n ] ]
    (fun b ->
      let iv = B.fresh b "i" and jv = B.fresh b "j" in
      let as_ =
        B.mapnest b "as" [ (iv, n); (jv, n) ] (fun bb ->
            [ B.fadd bb (Float 1.0) (Float 0.0) ])
      in
      [ Var (B.bind b "bs" (ETranspose (as_, [ 1; 0 ]))) ])

(* bs = fill n; xss[n:n] = bs - the short-circuiting pass rebases bs
   into xss's block and the update becomes bs's last use. *)
let base_circuit () =
  B.prog "mlsc" ~ctx:ctx_n2
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
                  slc = STriplet [ SRange { start = n; len = n; step = P.one } ];
                  src = SrcArr bs;
                }));
      ])

let check_clean name p =
  let r = ML.check p in
  Alcotest.(check (list string))
    (name ^ " seed lints clean") []
    (List.map (fun v -> v.ML.detail) (ML.errors r))

let check_rejected name rule p =
  let r = ML.check p in
  Alcotest.(check bool) (name ^ " is rejected") true (not (ML.ok r));
  Alcotest.(check bool)
    (Printf.sprintf "%s blames [%s]" name rule)
    true
    (List.exists (fun v -> v.ML.rule = rule) (ML.errors r))

(* The (single) annotated array binding of the mapnest statement. *)
let mapnest_pe (p : prog) : pat_elem =
  let stm =
    List.find
      (fun s -> match s.exp with EMap _ -> true | _ -> false)
      p.body.stms
  in
  List.find (fun pe -> is_array_typ pe.pt && pe.pmem <> None) stm.pat

(* ---------------------------------------------------------------- *)
(* Mutation 1: drop the allocation of a used block                   *)
(* ---------------------------------------------------------------- *)

let test_dropped_alloc () =
  let p = Core.Pipeline.to_memory_ir (base_fill ()) in
  check_clean "fill" p;
  let stms =
    List.filter
      (fun s -> match s.exp with EAlloc _ -> false | _ -> true)
      p.body.stms
  in
  check_rejected "dropped alloc" "alloc-dominance"
    { p with body = { p.body with stms } }

(* ---------------------------------------------------------------- *)
(* Mutation 2: a change-of-layout result claims the wrong block      *)
(* ---------------------------------------------------------------- *)

let test_wrong_block () =
  let p = Core.Pipeline.to_memory_ir (base_transpose ()) in
  check_clean "transpose" p;
  let ys = List.find (fun pe -> pe.pv = "ys") p.params in
  let ys_block = (Option.get ys.pmem).block in
  let tr_stm =
    List.find
      (fun s -> match s.exp with ETranspose _ -> true | _ -> false)
      p.body.stms
  in
  let pe = List.hd tr_stm.pat in
  let m = Option.get pe.pmem in
  pe.pmem <- Some { m with block = ys_block };
  check_rejected "wrong block" "layout" p

(* ---------------------------------------------------------------- *)
(* Mutation 3: widen a stride so the footprint escapes the block     *)
(* ---------------------------------------------------------------- *)

let test_out_of_bounds_stride () =
  let p = Core.Pipeline.to_memory_ir (base_fill ()) in
  let pe = mapnest_pe p in
  let m = Option.get pe.pmem in
  let l = List.hd (Ixfn.chain m.ixfn) in
  let widened =
    L.make (L.offset l)
      (List.map (fun d -> L.dim d.L.n (P.mul d.L.s (c 2))) (L.dims l))
  in
  (* same shape, doubled stride: max offset 2(n-1) > n-1 for n >= 2 *)
  pe.pmem <- Some { m with ixfn = Ixfn.of_lmad widened };
  check_rejected "out-of-bounds stride" "footprint" p

(* ---------------------------------------------------------------- *)
(* Mutation 4: read a short-circuited copy source after the update   *)
(* ---------------------------------------------------------------- *)

let test_use_after_last_use () =
  let compiled = Core.Pipeline.compile (base_circuit ()) in
  Alcotest.(check bool)
    "the circuit fires" true
    (compiled.Core.Pipeline.stats.Core.Shortcircuit.succeeded > 0);
  let p = compiled.Core.Pipeline.opt in
  check_clean "circuited update" p;
  (* bs now lives in xss's block and the update is its last use; a
     read of bs after the update observes the overwrite *)
  let src =
    List.find_map
      (fun s ->
        match s.exp with
        | EUpdate { src = SrcArr b; _ } -> Some b
        | _ -> None)
      p.body.stms
    |> Option.get
  in
  let extra =
    { pat = [ pat_elem "lint_t" f64 ]; exp = EIndex (src, [ P.zero ]);
      last_uses = [] }
  in
  check_rejected "use after last use" "last-use"
    { p with body = { p.body with stms = p.body.stms @ [ extra ] } }

(* ---------------------------------------------------------------- *)
(* Mutation 5: collapse the per-thread result slots onto each other  *)
(* ---------------------------------------------------------------- *)

let test_overlapping_threads () =
  let p = Core.Pipeline.to_memory_ir (base_fill ()) in
  let pe = mapnest_pe p in
  let m = Option.get pe.pmem in
  let l = List.hd (Ixfn.chain m.ixfn) in
  let collapsed =
    L.make (L.offset l) (List.map (fun d -> L.dim d.L.n P.zero) (L.dims l))
  in
  (* stride 0: every thread writes slot 0 *)
  pe.pmem <- Some { m with ixfn = Ixfn.of_lmad collapsed };
  check_rejected "overlapping thread writes" "write-race" p

(* ---------------------------------------------------------------- *)
(* Seeds: the benchmark programs lint clean at every stage           *)
(* ---------------------------------------------------------------- *)

(* Every stage was linted, and no lint verdict rests on a prover query
   cut short by a budget or by the non-overlap deadline: a cut query
   answers "not proved", which on NW used to surface as write-race
   warnings that varied with host load. *)
let check_linted name compiled =
  Alcotest.(check (list string))
    (name ^ " lints at every stage, in pass order")
    [
      "memintro";
      "hoist";
      "lastuse";
      "shortcircuit";
      "cleanup";
      "reuse";
      "pack";
    ]
    (List.map fst compiled.Core.Pipeline.lint);
  Alcotest.(check int)
    (name ^ ": no prover query cut short") 0
    compiled.Core.Pipeline.prover_exhausted

let test_benchmarks_clean () =
  List.iter
    (fun (name, prog) ->
      let compiled = Core.Pipeline.compile ~lint:true prog in
      check_linted name compiled;
      match Core.Pipeline.first_lint_error compiled.Core.Pipeline.lint with
      | None -> ()
      | Some (stage, v) ->
          Alcotest.failf "%s: %s introduced %s" name stage
            (Fmt.str "%a" ML.pp_violation v))
    [
      ("nw", Benchsuite.Nw.prog);
      ("hotspot", Benchsuite.Hotspot.prog);
      ("lbm", Benchsuite.Lbm.prog);
      ("optionpricing", Benchsuite.Option_pricing.prog);
      ("locvolcalib", Benchsuite.Locvolcalib.prog);
      ("nn", Benchsuite.Nn.prog);
    ]

(* Regression: LUD's interior write-race obligations need the prover's
   triangular-bound saturation (from 0 <= jv <= bi - 1 and
   bi <= m - 1 it must derive m >= 2 for the per-thread disjointness
   proof), and NW's race obligations must finish well inside the
   non-overlap deadline; pin both benchmarks to zero warnings at every
   stage so a prover regression cannot silently reintroduce them. *)
let test_lud_no_warnings () =
  List.iter
    (fun (name, prog) ->
      let compiled = Core.Pipeline.compile ~lint:true prog in
      check_linted name compiled;
      List.iter
        (fun (stage, r) ->
          let pp vs = List.map (fun v -> Fmt.str "%a" ML.pp_violation v) vs in
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s: no errors" name stage)
            [] (pp (ML.errors r));
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s: no warnings" name stage)
            [] (pp (ML.warnings r)))
        compiled.Core.Pipeline.lint)
    [ ("lud", Benchsuite.Lud.prog); ("nw", Benchsuite.Nw.prog) ]

(* A pre-memory program is vacuously clean. *)
let test_unannotated_clean () =
  let r = ML.check (base_fill ()) in
  Alcotest.(check bool) "no annotations, no violations" true
    (ML.ok r && ML.warnings r = []);
  Alcotest.(check int) "no annotations counted" 0 r.ML.annotations

let tests =
  [
    Alcotest.test_case "unannotated program" `Quick test_unannotated_clean;
    Alcotest.test_case "mutation: dropped alloc" `Quick test_dropped_alloc;
    Alcotest.test_case "mutation: wrong block" `Quick test_wrong_block;
    Alcotest.test_case "mutation: out-of-bounds stride" `Quick
      test_out_of_bounds_stride;
    Alcotest.test_case "mutation: use after last use" `Quick
      test_use_after_last_use;
    Alcotest.test_case "mutation: overlapping thread writes" `Quick
      test_overlapping_threads;
    Alcotest.test_case "benchmarks lint clean per stage" `Slow
      test_benchmarks_clean;
    Alcotest.test_case "lud: zero warnings (triangular bounds)" `Slow
      test_lud_no_warnings;
  ]
