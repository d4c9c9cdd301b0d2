(* Tests for the free-variable walk ({!Ir.Ast.fv_exp} and its
   relatives) and for the analyses that read it.

   - An oracle.  The set-union definition the walk replaced is kept
     here as the reference ([Ref]): one set per atom and polynomial,
     unions all the way up.  On every statement and block of the seven
     paper programs at every pipeline stage, and of the certify and
     pack generators' programs, [fv_exp], [fv_stm] and [fv_block] must
     equal it; a memo ({!Ir.Ast.fv_memo}, the table memlint, certify,
     reuse and pack read) must agree with [fv_stm] whether it is asked
     outermost or innermost first; and [Cleanup.run] must remove
     exactly the allocations the reference's liveness leaves dead,
     with the annotations and without them.

   - A superlinearity gate.  One program holds the same statements at
     each of d = 1..6 nested loops (or maps); the expressions the walk
     visits per statement, in [Memlint.check], in [Cleanup.run] and in
     a certified compile, must not grow with d.  An analysis that
     re-walks every nested block at every level visits a statement once
     per enclosing level, so its count per statement grows with d. *)

open Ir
open Ast
module P = Symalg.Poly
module B = Build

(* ---------------------------------------------------------------- *)
(* The reference                                                     *)
(* ---------------------------------------------------------------- *)

module Ref = struct
  let fv_atom = function Var v -> SS.singleton v | _ -> SS.empty
  let fv_idx (i : idx) = SS.of_list (P.vars i)
  let fv_idxs is =
    List.fold_left (fun acc i -> SS.union acc (fv_idx i)) SS.empty is

  let fv_slice = function
    | STriplet sds ->
        List.fold_left
          (fun acc sd ->
            match sd with
            | SFix i -> SS.union acc (fv_idx i)
            | SRange { start; len; step } ->
                SS.union acc (fv_idxs [ start; len; step ]))
          SS.empty sds
    | SLmad l -> SS.of_list (Lmads.Lmad.vars l)

  let rec fv_exp (e : exp) : SS.t =
    match e with
    | EAtom a | EUn (_, a) -> fv_atom a
    | EBin (_, a, b) | ECmp (_, a, b) -> SS.union (fv_atom a) (fv_atom b)
    | EIdx i | EIota i | EAlloc i -> fv_idx i
    | EIndex (v, is) | EReshape (v, is) -> SS.add v (fv_idxs is)
    | ESlice (v, slc) -> SS.add v (fv_slice slc)
    | ETranspose (v, _) | EReverse (v, _) | ECopy v | EArgmin v ->
        SS.singleton v
    | EReplicate (shape, a) -> SS.union (fv_atom a) (fv_idxs shape)
    | EScratch (_, shape) -> fv_idxs shape
    | EConcat vs -> SS.of_list vs
    | EUpdate { dst; slc; src } ->
        let s =
          match src with SrcArr v -> SS.singleton v | SrcScalar a -> fv_atom a
        in
        SS.add dst (SS.union s (fv_slice slc))
    | EMap { nest; body } ->
        SS.union
          (fv_idxs (List.map snd nest))
          (SS.diff (fv_block body) (SS.of_list (List.map fst nest)))
    | EReduce { ne; arr; _ } -> SS.add arr (fv_atom ne)
    | ELoop { params; var; bound; body } ->
        let inits =
          List.fold_left
            (fun acc (_, a) -> SS.union acc (fv_atom a))
            SS.empty params
        in
        let bound_vars =
          SS.add var (SS.of_list (List.map (fun (pe, _) -> pe.pv) params))
        in
        SS.union inits
          (SS.union (fv_idx bound) (SS.diff (fv_block body) bound_vars))
    | EIf { cond; tb; fb } ->
        SS.union (fv_atom cond) (SS.union (fv_block tb) (fv_block fb))

  and fv_stm (s : stm) : SS.t =
    List.fold_left
      (fun acc pe ->
        match pe.pmem with
        | None -> acc
        | Some { block; ixfn } ->
            SS.add block (SS.union acc (SS.of_list (Lmads.Ixfn.vars ixfn))))
      (fv_exp s.exp) s.pat

  and fv_block (b : block) : SS.t =
    let bound, free =
      List.fold_left
        (fun (bound, free) s ->
          ( SS.union bound (SS.of_list (List.map (fun pe -> pe.pv) s.pat)),
            SS.union free (SS.diff (fv_stm s) bound) ))
        (SS.empty, SS.empty) b.stms
    in
    SS.union free
      (SS.diff
         (SS.of_list (List.filter_map atom_var b.res))
         bound)

  (* The allocations dead-allocation cleanup removes, by the liveness
     rule stated over these free variables: a block is live when an
     annotation names it, it is free in an expression other than its
     own allocation, or a nested block's result or a loop parameter
     names it. *)
  let dead_allocs (p : prog) : SS.t =
    let mem_blocks pes =
      List.filter_map (fun pe -> Option.map (fun m -> m.block) pe.pmem) pes
    in
    let res_vars (b : block) = SS.of_list (List.filter_map atom_var b.res) in
    let rec live (b : block) =
      List.fold_left
        (fun acc s ->
          let acc = SS.union acc (SS.of_list (mem_blocks s.pat)) in
          let acc =
            match s.exp with EAlloc _ -> acc | e -> SS.union acc (fv_exp e)
          in
          match s.exp with
          | EMap { body; _ } ->
              SS.union acc (SS.union (res_vars body) (live body))
          | ELoop { params; body; _ } ->
              SS.union acc
                (SS.union
                   (SS.of_list
                      (mem_blocks (List.map fst params)
                      @ List.filter_map (fun (_, a) -> atom_var a) params))
                   (SS.union (res_vars body) (live body)))
          | EIf { tb; fb; _ } ->
              SS.union acc
                (SS.union
                   (SS.union (res_vars tb) (res_vars fb))
                   (SS.union (live tb) (live fb)))
          | _ -> acc)
        SS.empty b.stms
    in
    let live =
      SS.union (live p.body)
        (SS.union (SS.of_list (mem_blocks p.params)) (res_vars p.body))
    in
    List.fold_left
      (fun acc s ->
        match (s.exp, s.pat) with
        | EAlloc _, [ pe ] when not (SS.mem pe.pv live) -> SS.add pe.pv acc
        | _ -> acc)
      SS.empty (all_stms_block p.body)
end

(* ---------------------------------------------------------------- *)
(* The oracle                                                        *)
(* ---------------------------------------------------------------- *)

let allocs (p : prog) =
  List.fold_left
    (fun acc s ->
      match (s.exp, s.pat) with
      | EAlloc _, [ pe ] -> SS.add pe.pv acc
      | _ -> acc)
    SS.empty (all_stms_block p.body)

let rec all_blocks (b : block) : block list =
  b
  :: List.concat_map
       (fun s ->
         match s.exp with
         | EMap { body; _ } | ELoop { body; _ } -> all_blocks body
         | EIf { tb; fb; _ } -> all_blocks tb @ all_blocks fb
         | _ -> [])
       b.stms

let strip_annotations (p : prog) =
  let p = Clone.clone_prog p in
  let strip pes = List.iter (fun pe -> pe.pmem <- None) pes in
  strip p.params;
  List.iter
    (fun s ->
      strip s.pat;
      match s.exp with
      | ELoop { params; _ } -> strip (List.map fst params)
      | _ -> ())
    (all_stms_block p.body);
  p

let pp_set = Fmt.(braces (list ~sep:comma string))
let stm_name s = match s.pat with pe :: _ -> pe.pv | [] -> "<no binder>"

(* Every statement and block of [p] against the reference, two memos
   asked in opposite orders against [fv_stm], and cleanup's removals
   against the reference's dead allocations. *)
let check_prog what (p : prog) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let stms = all_stms_block p.body in
  let agree kind name got want =
    if not (SS.equal got want) then
      fail "%s of %s: %a, reference %a" kind name pp_set (SS.elements got)
        pp_set (SS.elements want)
  in
  List.iter
    (fun s ->
      agree "fv_exp" (stm_name s) (fv_exp s.exp) (Ref.fv_exp s.exp);
      agree "fv_stm" (stm_name s) (fv_stm s) (Ref.fv_stm s))
    stms;
  List.iter
    (fun b ->
      let name = match b.stms with s :: _ -> stm_name s | [] -> "<empty>" in
      agree "fv_block" name (fv_block b) (Ref.fv_block b))
    (all_blocks p.body);
  List.iter
    (fun order ->
      let memo = fv_memo () in
      List.iter
        (fun s ->
          agree "fv_memo_stm" (stm_name s) (fv_memo_stm memo s) (fv_stm s))
        order)
    [ stms; List.rev stms ];
  (* with the annotations and without them, so that liveness through
     expression positions alone (loop initializers, block results) is
     exercised too *)
  List.iter
    (fun (how, p) ->
      let want = Ref.dead_allocs p in
      let cleaned, removed = Core.Cleanup.run (Clone.clone_prog p) in
      let got = SS.diff (allocs p) (allocs cleaned) in
      agree ("Cleanup.run's removals" ^ how) p.name got want;
      if removed <> SS.cardinal want then
        fail "Cleanup.run counts %d removals%s, the reference %d" removed how
          (SS.cardinal want))
    [ ("", p); (" without annotations", strip_annotations p) ]

(* A program at every stage of the pipeline: the source, then each
   pass's output, the pre-cleanup outputs included. *)
let stages (src : prog) : (string * prog) list =
  let out = ref [ ("source", src) ] in
  let step name f p =
    let p = f (Clone.clone_prog p) in
    out := (name, p) :: !out;
    p
  in
  let relive p =
    ignore (Core.Lastuse.annotate p);
    p
  in
  let p = step "memintro" Core.Memintro.introduce src in
  let p = step "hoist" Core.Hoist.hoist p in
  let p = step "lastuse" relive p in
  let p = step "shortcircuit" (fun p -> fst (Core.Shortcircuit.optimize p)) p in
  let p = step "cleanup" (fun p -> fst (Core.Cleanup.run p)) p in
  let p = step "reuse" (fun p -> relive (fst (Core.Reuse.optimize p))) p in
  let p = step "cleanup-reuse" (fun p -> fst (Core.Cleanup.run p)) p in
  let p = step "pack" (fun p -> relive (fst (Core.Pack.optimize p))) p in
  ignore (step "cleanup-pack" (fun p -> fst (Core.Cleanup.run p)) p);
  List.rev !out

let check_stages name src =
  List.iter
    (fun (stage, p) -> check_prog (Printf.sprintf "%s at %s" name stage) p)
    (stages src)

let test_paper_programs () =
  List.iter
    (fun { Benchsuite.Runner.name; prog; _ } -> check_stages name prog)
    Benchsuite.Suite.all

let prop_generated_programs =
  QCheck.Test.make ~name:"free variables agree with the reference"
    ~count:(Qcount.count 6)
    (QCheck.make
       ~print:(fun (k, bound, mode) ->
         Printf.sprintf "k=%d bound=%d mode=%d" k bound mode)
       QCheck.Gen.(triple (int_range 2 4) (int_range 2 4) (int_range 0 2)))
    (fun (k, bound, mode) ->
      check_stages "chain" (Test_certify.gen_chain k);
      check_stages "siblings" (Test_certify.gen_siblings (k - 1) bound);
      check_stages "cond" (Test_certify.gen_cond mode bound);
      check_stages "pack" (Test_pack.gen_pack k);
      check_stages "phased" (Test_pack.gen_phased (k - 1) k);
      true)

(* ---------------------------------------------------------------- *)
(* The superlinearity gate                                           *)
(* ---------------------------------------------------------------- *)

let c = P.const
let n = Test_pack.n
let ctx_n2 = Test_pack.ctx_n2
let fill = Test_pack.fill

(* [d] nested loops, each body running the next loop, then the same
   two statements: a fill, and a map adding it to the inner result. *)
let nested_loops d =
  B.prog "nestloops" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let rec level b j acc =
        if j > d then acc
        else
          B.loop1 b "acc" (arr F64 [ n ]) (Var acc) ~bound:(c 2)
            (fun bb ~param ~i:_ ->
              let inner = level bb (j + 1) param in
              let tmp = fill bb "tmp" n (float_of_int j) in
              let iv = B.fresh bb "i" in
              Var
                (B.mapnest bb "acc'" [ (iv, n) ] (fun b3 ->
                     [
                       B.fadd b3
                         (B.index b3 inner [ P.var iv ])
                         (B.index b3 tmp [ P.var iv ]);
                     ])))
      in
      [ Var (level b 1 (fill b "a0" n 0.0)) ])

(* [d] nested maps, each thread running the next map, then the same
   two statements: a fill, and a read of both at the thread's index. *)
let nested_maps d =
  B.prog "nestmaps" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let rec level b j =
        let iv = B.fresh b "i" in
        B.mapnest b "m" [ (iv, n) ] (fun bb ->
            let tmp = fill bb "tmp" n (float_of_int j) in
            let here = B.index bb tmp [ P.var iv ] in
            if j = d then [ here ]
            else
              [ B.fadd bb here (B.index bb (level bb (j + 1)) [ P.var iv ]) ])
      in
      [ Var (level b 1) ])

let visits f =
  reset_fv_visits ();
  let x = f () in
  (x, fv_visits ())

let size (p : prog) = List.length (all_stms_block p.body)

(* Each analysis's visits and the size of the program it walked, at
   depth [d]. *)
let counts shape d =
  let src = shape d in
  let cpl, compile =
    visits (fun () -> Core.Pipeline.compile ~certify:true ~fail_safe:true src)
  in
  (match
     (cpl.Core.Pipeline.recovery, Core.Pipeline.first_cert_failure cpl.certs)
   with
  | [], None -> ()
  | _ -> Alcotest.failf "depth %d: the certified compile degraded" d);
  let p = cpl.Core.Pipeline.pack in
  let _, lint = visits (fun () -> Core.Memlint.check p) in
  let _, cleanup = visits (fun () -> Core.Cleanup.run (Clone.clone_prog p)) in
  [
    ("Memlint.check", (lint, size p));
    ("Cleanup.run", (cleanup, size p));
    ("certified Pipeline.compile", (compile, size cpl.Core.Pipeline.unopt));
  ]

(* Per-statement visits at depths 3 to 6 must stay within 10% of
   depth 2, the smallest program with a nested level (depth 1 has none,
   so the passes do less per statement there).  A walk that visits a
   statement once per enclosing level adds about half a visit per
   statement and level to memlint and cleanup, and ten to the
   certified compile: from depth 2 to 3 they grew 14%, 24% and 36%
   while each analysis re-walked nested blocks. *)
let test_depth shape () =
  let rows = List.map (fun d -> (d, counts shape d)) [ 1; 2; 3; 4; 5; 6 ] in
  let per (v, n) = float_of_int v /. float_of_int n in
  let table what =
    String.concat ", "
      (List.map
         (fun (d, r) ->
           let v, n = List.assoc what r in
           Printf.sprintf "d=%d %d/%d" d v n)
         rows)
  in
  let base = List.assoc 2 rows in
  List.iter
    (fun (d, r) ->
      if d > 2 then
        List.iter
          (fun (what, vn) ->
            let b = per (List.assoc what base) in
            if per vn > 1.1 *. b then
              Alcotest.failf
                "%s: %.2f visits per statement at depth %d, %.2f at depth 2 \
                 (visits/statements: %s)"
                what (per vn) d b (table what))
          r)
    rows

let tests =
  [
    Alcotest.test_case "paper programs agree with the reference at every stage"
      `Quick test_paper_programs;
    QCheck_alcotest.to_alcotest prop_generated_programs;
    Alcotest.test_case "visits per statement do not grow with loop depth"
      `Quick (test_depth nested_loops);
    Alcotest.test_case "visits per statement do not grow with map depth"
      `Quick (test_depth nested_maps);
  ]
