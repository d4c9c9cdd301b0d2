(* Tests for the memory passes: memory introduction (section IV),
   allocation hoisting, last-use analysis, and above all the
   short-circuiting scenarios of the paper's figures:

   - Fig. 1  left fires / right (data-dependent) must not;
   - Fig. 4a trivial concatenation;
   - Fig. 4b use of the destination between creation and circuit point;
   - Fig. 5a if-producing candidates;
   - Fig. 6a transitive chaining through a concat;
   - Fig. 6b mapnest per-thread results;
   - change-of-layout chains (invertible transpose vs non-invertible
     slice);
   - semantic preservation: every scenario is executed in full mode and
     compared against the reference interpreter. *)

open Ir
open Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Build
module Sc = Core.Shortcircuit
module Exec = Gpu.Exec

let c = P.const
let n = P.var "n"
let ctx_n = Pr.add_range Pr.empty "n" ~lo:(c 1) ()

let farr xs = Value.VArr (Value.of_floats [ Array.length xs ] xs)

let farr2 r k xs = Value.VArr (Value.of_floats [ r; k ] xs)

(* Compile, validate semantics in full mode, and return the pass
   statistics plus the optimized run's counters. *)
let scenario ?(args = []) prog =
  let compiled = Core.Pipeline.compile prog in
  let stats = compiled.Core.Pipeline.stats in
  if args = [] then (stats, None)
  else begin
    let expect = Interp.run compiled.Core.Pipeline.source args in
    let ru = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
    let ro = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.opt args in
    Alcotest.(check bool)
      "unopt preserves semantics" true
      (List.for_all2 Value.bit_equal expect ru.Exec.results);
    Alcotest.(check bool)
      "opt preserves semantics" true
      (List.for_all2 Value.bit_equal expect ro.Exec.results);
    (stats, Some (ru.Exec.counters, ro.Exec.counters))
  end

let check_fired name expected (stats : Sc.stats) =
  Alcotest.(check bool) name expected (stats.Sc.succeeded > 0)

(* ---------------------------------------------------------------- *)
(* Fig. 1                                                            *)
(* ---------------------------------------------------------------- *)

let diag_slice =
  SLmad (Lmads.Lmad.make P.zero [ Lmads.Lmad.dim n (P.add n P.one) ])

let test_fig1_left () =
  let prog =
    B.prog "f1l" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ P.mul n n ]) ]
      ~ret:[ arr F64 [ P.mul n n ] ]
      (fun b ->
        let x =
          B.mapnest b "x" [ ("i", n) ] (fun bb ->
              let i = P.var "i" in
              let d = B.index bb "a" [ P.mul i (P.add n P.one) ] in
              let r = B.index bb "a" [ i ] in
              [ B.fadd bb d r ])
        in
        [ Var (B.bind b "a2" (EUpdate { dst = "a"; slc = diag_slice; src = SrcArr x })) ])
  in
  let nv = 6 in
  let stats, counters =
    scenario
      ~args:[ Value.VInt nv; farr (Array.init (nv * nv) float_of_int) ]
      prog
  in
  check_fired "Fig. 1 left fires" true stats;
  match counters with
  | Some (u, o) ->
      Alcotest.(check bool) "unopt copies" true (u.Gpu.Device.copies > 0);
      Alcotest.(check int) "opt copies" 0 o.Gpu.Device.copies
  | None -> ()

let test_fig1_right () =
  let prog =
    B.prog "f1r" ~ctx:ctx_n
      ~params:
        [
          pat_elem "n" i64;
          pat_elem "a" (arr F64 [ P.mul n n ]);
          pat_elem "js" (arr I64 [ n ]);
        ]
      ~ret:[ arr F64 [ P.mul n n ] ]
      (fun b ->
        let x =
          B.mapnest b "x" [ ("i", n) ] (fun bb ->
              let i = P.var "i" in
              let d = B.index bb "a" [ P.mul i (P.add n P.one) ] in
              let j = B.bind bb "j" (EIndex ("js", [ i ])) in
              let o = B.index bb "a" [ P.mul (P.var j) (P.add n P.one) ] in
              [ B.fadd bb d o ])
        in
        [ Var (B.bind b "a2" (EUpdate { dst = "a"; slc = diag_slice; src = SrcArr x })) ])
  in
  let nv = 6 in
  let js = Value.VArr (Value.of_ints [ nv ] (Array.init nv (fun i -> (i + 2) mod nv))) in
  let stats, _ =
    scenario
      ~args:[ Value.VInt nv; farr (Array.init (nv * nv) float_of_int); js ]
      prog
  in
  check_fired "Fig. 1 right must NOT fire" false stats

(* ---------------------------------------------------------------- *)
(* Fig. 4a: trivial concatenation                                    *)
(* ---------------------------------------------------------------- *)

let fill b name cnt seed =
  B.mapnest b name [ (B.fresh b "i", cnt) ] (fun bb ->
      [ B.fadd bb (Float seed) (Float 0.0) ])

let test_fig4a_concat () =
  let m = P.var "m" in
  let prog =
    B.prog "f4a"
      ~ctx:(Pr.add_range ctx_n "m" ~lo:(c 1) ())
      ~params:[ pat_elem "n" i64; pat_elem "m" i64 ]
      ~ret:[ arr F64 [ P.add m n ] ]
      (fun b ->
        let as_ = fill b "as" m 1.0 in
        let bs = fill b "bs" n 2.0 in
        [ Var (B.bind b "xss" (EConcat [ as_; bs ])) ])
  in
  let stats, counters = scenario ~args:[ Value.VInt 5; Value.VInt 3 ] prog in
  Alcotest.(check int) "both operands circuit" 2 stats.Sc.succeeded;
  match counters with
  | Some (_, o) ->
      Alcotest.(check int) "concat free" 0 o.Gpu.Device.copies
  | None -> ()

let test_concat_same_array_twice () =
  (* footnote 17: concat bs bs cannot be fully optimized - only one
     occurrence can be the last use *)
  let prog =
    B.prog "f4a2" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ]
      ~ret:[ arr F64 [ P.scale 2 n ] ]
      (fun b ->
        let bs = fill b "bs" n 2.0 in
        [ Var (B.bind b "xss" (EConcat [ bs; bs ])) ])
  in
  let _, counters = scenario ~args:[ Value.VInt 4 ] prog in
  match counters with
  | Some (_, o) ->
      Alcotest.(check bool) "at least one copy remains" true
        (o.Gpu.Device.copies >= 1)
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Fig. 4b: destination used between creation and circuit point      *)
(* ---------------------------------------------------------------- *)

(* xss is READ from a region the candidate writes: must not fire. *)
let test_fig4b_conflicting_use () =
  let prog =
    B.prog "f4b" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ P.scale 2 n ]) ]
      ~ret:[ f64; arr F64 [ P.scale 2 n ] ]
      (fun b ->
        let bs = fill b "bs" n 7.0 in
        (* use of xss AT a location bs will overwrite, after bs exists *)
        let u = B.index b "xss" [ n ] in
        let upd =
          B.bind b "xss2"
            (EUpdate
               {
                 dst = "xss";
                 slc = STriplet [ SRange { start = n; len = n; step = P.one } ];
                 src = SrcArr bs;
               })
        in
        [ u; Var upd ])
  in
  let stats, _ =
    scenario ~args:[ Value.VInt 4; farr (Array.init 8 float_of_int) ] prog
  in
  check_fired "conflicting use blocks the circuit" false stats

(* A use of a DISJOINT region of xss is fine (Fig. 4b line 2). *)
let test_fig4b_disjoint_use () =
  let prog =
    B.prog "f4b2" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ P.scale 2 n ]) ]
      ~ret:[ f64; arr F64 [ P.scale 2 n ] ]
      (fun b ->
        let bs = fill b "bs" n 7.0 in
        (* reads the FIRST half; bs goes to the second *)
        let u = B.index b "xss" [ P.zero ] in
        let upd =
          B.bind b "xss2"
            (EUpdate
               {
                 dst = "xss";
                 slc = STriplet [ SRange { start = n; len = n; step = P.one } ];
                 src = SrcArr bs;
               })
        in
        [ u; Var upd ])
  in
  let stats, _ =
    scenario ~args:[ Value.VInt 4; farr (Array.init 8 float_of_int) ] prog
  in
  check_fired "disjoint use permits the circuit" true stats

(* ---------------------------------------------------------------- *)
(* Change-of-layout chains (Fig. 4b lines 4-5)                       *)
(* ---------------------------------------------------------------- *)

let test_invertible_transpose_chain () =
  (* bs = transpose as, update uses bs: as must be rebased through the
     inverse permutation *)
  let prog =
    B.prog "chain" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ n; n ]) ]
      ~ret:[ arr F64 [ n; n ] ]
      (fun b ->
        let iv = B.fresh b "i" and jv = B.fresh b "j" in
        let as_ =
          B.mapnest b "as" [ (iv, n); (jv, n) ] (fun bb ->
              [
                B.fadd bb
                  (B.unop bb ToF64 (B.idx bb (P.var iv)))
                  (B.unop bb ToF64 (B.idx bb (P.scale 10 (P.var jv))));
              ])
        in
        let bs = B.bind b "bs" (ETranspose (as_, [ 1; 0 ])) in
        [
          Var
            (B.bind b "xss2"
               (EUpdate
                  {
                    dst = "xss";
                    slc = STriplet [ B.all n; B.all n ];
                    src = SrcArr bs;
                  }));
        ])
  in
  let stats, counters =
    scenario ~args:[ Value.VInt 4; farr2 4 4 (Array.init 16 float_of_int) ] prog
  in
  check_fired "transpose chain fires" true stats;
  match counters with
  | Some (_, o) -> Alcotest.(check int) "no copies" 0 o.Gpu.Device.copies
  | None -> ()

let test_noninvertible_slice_chain () =
  (* bs = as[0:n:2] (a strided slice of a larger fresh array): the
     inverse does not exist, the circuit must fail *)
  let prog =
    B.prog "slc" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ n ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let as_ = fill b "as" (P.scale 2 n) 3.0 in
        let bs =
          B.bind b "bs"
            (ESlice
               (as_, STriplet [ SRange { start = P.zero; len = n; step = c 2 } ]))
        in
        [
          Var
            (B.bind b "xss2"
               (EUpdate
                  { dst = "xss"; slc = STriplet [ B.all n ]; src = SrcArr bs }));
        ])
  in
  let stats, _ =
    scenario ~args:[ Value.VInt 4; farr (Array.init 4 float_of_int) ] prog
  in
  check_fired "slice chain must NOT fire" false stats

(* ---------------------------------------------------------------- *)
(* Fig. 5a: candidates produced by if                                *)
(* ---------------------------------------------------------------- *)

let test_fig5a_if () =
  let prog =
    B.prog "f5a" ~ctx:ctx_n
      ~params:
        [
          pat_elem "n" i64;
          pat_elem "c" boolt;
          pat_elem "xss" (arr F64 [ n; n ]);
        ]
      ~ret:[ arr F64 [ n; n ] ]
      (fun b ->
        let bs =
          B.if_ b "bs" (Var "c")
            (fun tb -> [ Var (fill tb "bs_t" n 1.0) ])
            (fun fb -> [ Var (fill fb "bs_f" n 2.0) ])
        in
        [
          Var
            (B.bind b "xss2"
               (EUpdate
                  {
                    dst = "xss";
                    slc = STriplet [ SFix P.zero; B.all n ];
                    src = SrcArr (List.hd bs);
                  }));
        ])
  in
  let stats, counters =
    scenario
      ~args:
        [ Value.VInt 4; Value.VBool true; farr2 4 4 (Array.init 16 float_of_int) ]
      prog
  in
  check_fired "if-produced candidate fires" true stats;
  match counters with
  | Some (_, o) -> Alcotest.(check int) "no copies" 0 o.Gpu.Device.copies
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Fig. 6a: transitive chaining                                      *)
(* ---------------------------------------------------------------- *)

let test_fig6a_transitive () =
  (* as,bs -> cs (concat) -> row i of yss; everything collapses into
     yss's memory *)
  let prog =
    B.prog "f6a" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "yss" (arr F64 [ n; P.scale 2 n ]) ]
      ~ret:[ arr F64 [ n; P.scale 2 n ] ]
      (fun b ->
        let as_ = fill b "as" n 1.0 in
        let bs = fill b "bs" n 2.0 in
        let cs = B.bind b "cs" (EConcat [ as_; bs ]) in
        [
          Var
            (B.bind b "yss2"
               (EUpdate
                  {
                    dst = "yss";
                    slc = STriplet [ SFix P.one; B.all (P.scale 2 n) ];
                    src = SrcArr cs;
                  }));
        ])
  in
  let stats, counters =
    scenario ~args:[ Value.VInt 3; farr2 3 6 (Array.init 18 float_of_int) ] prog
  in
  Alcotest.(check int) "cs, as and bs all circuit" 3 stats.Sc.succeeded;
  match counters with
  | Some (_, o) -> Alcotest.(check int) "everything free" 0 o.Gpu.Device.copies
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Fig. 6b: mapnest per-thread results                               *)
(* ---------------------------------------------------------------- *)

let test_fig6b_mapnest () =
  (* each thread builds a row with a sequential prefix-style loop; the
     row is constructed directly in the result matrix *)
  let prog =
    B.prog "f6b" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ]
      ~ret:[ arr F64 [ n; n ] ]
      (fun b ->
        let iv = B.fresh b "i" in
        let xss =
          B.mapnest b "xss" [ (iv, n) ] (fun tb ->
              let rs0 = B.bind tb "rs" (EScratch (F64, [ n ])) in
              let rs1 =
                B.bind tb "rs1"
                  (EUpdate
                     {
                       dst = rs0;
                       slc = STriplet [ SFix P.zero ];
                       src = SrcScalar (Float 1.0);
                     })
              in
              let final =
                B.loop1 tb "acc" (arr F64 [ n ]) (Var rs1)
                  ~bound:(P.sub n P.one)
                  (fun kb ~param ~i:k ->
                    let prev = B.index kb param [ k ] in
                    let v = B.fadd kb prev (Float 1.0) in
                    Var
                      (B.bind kb "rs'"
                         (EUpdate
                            {
                              dst = param;
                              slc = STriplet [ SFix (P.add k P.one) ];
                              src = SrcScalar v;
                            })))
              in
              [ Var final ])
        in
        [ Var xss ])
  in
  let stats, counters = scenario ~args:[ Value.VInt 5 ] prog in
  check_fired "per-thread result circuits" true stats;
  match counters with
  | Some (u, o) ->
      Alcotest.(check bool) "unopt pays slot traffic" true
        (u.Gpu.Device.kernel_reads > o.Gpu.Device.kernel_reads);
      Alcotest.(check bool) "opt elides" true (o.Gpu.Device.copies_elided > 0)
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Hoisting and last-use                                             *)
(* ---------------------------------------------------------------- *)

let test_hoist_allocs_first () =
  let prog =
    B.prog "h" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ] ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let xs = fill b "xs" n 1.0 in
        let ys = fill b "ys" n 2.0 in
        ignore xs;
        [ Var ys ])
  in
  let m = Core.Memintro.introduce (Clone.clone_prog prog) in
  let h = Core.Hoist.hoist m in
  let rec leading_allocs = function
    | { exp = EAlloc _; _ } :: rest -> 1 + leading_allocs rest
    | _ -> 0
  in
  Alcotest.(check int) "both allocs float to the top" 2
    (leading_allocs h.body.stms)

let test_lastuse_annotations () =
  let prog =
    B.prog "lu" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ] ~ret:[ f64 ]
      (fun b ->
        let xs = fill b "xs" n 1.0 in
        let a = B.index b xs [ P.zero ] in
        let bv = B.index b xs [ P.one ] in
        [ B.fadd b a bv ])
  in
  ignore (Core.Lastuse.annotate prog);
  (* the second read of xs is its last use *)
  let stms = prog.body.stms in
  let with_lu =
    List.filter (fun s -> List.mem "xs_1" s.last_uses || s.last_uses <> []) stms
  in
  Alcotest.(check bool) "some statement is a last use" true (with_lu <> []);
  (* the FIRST read must not be marked *)
  let first_read =
    List.find
      (fun s -> match s.exp with EIndex (_, [ i ]) -> P.is_zero i | _ -> false)
      stms
  in
  Alcotest.(check (list string)) "first read is not a last use" []
    first_read.last_uses

(* Last uses in nested blocks, one rule of lastuse.ml's header each.
   [annotated] builds a program whose builder also reports binder
   names, and annotates it; [lu p v] is the last-use list of the
   statement binding [v]. *)
let annotated name ?(params = [ pat_elem "n" i64 ]) ~ret f =
  let names = ref [] in
  let prog =
    B.prog name ~ctx:ctx_n ~params ~ret (fun b ->
        let res, ns = f b in
        names := ns;
        res)
  in
  ignore (Core.Lastuse.annotate prog);
  (prog, !names)

let binding_stm (p : prog) v =
  match
    List.find_opt
      (fun s -> List.exists (fun pe -> pe.pv = v) s.pat)
      (all_stms_block p.body)
  with
  | Some s -> s
  | None -> Alcotest.failf "no statement binds %s" v

let lu p v = (binding_stm p v).last_uses
let var_of = function Var v -> v | _ -> Alcotest.fail "expected a variable"

(* No statement nested in the one binding [stm] lastly uses [v]. *)
let never_last_inside p ~stm v =
  List.iter
    (fun s ->
      if List.mem v s.last_uses then
        Alcotest.failf "%s is lastly used inside %s" v stm)
    (List.tl (all_stms_block (block [ binding_stm p stm ] [])))

(* An array free in a loop or mapnest body is read by every iteration
   or thread: it is lastly used at the compound statement, never
   inside it. *)
let test_lastuse_free_in_body () =
  let p, names =
    annotated "lu_free" ~ret:[ f64 ] (fun b ->
        let xs = fill b "xs" n 1.0 in
        let ys = fill b "ys" n 2.0 in
        let sum =
          B.loop1 b "sum" f64 (Float 0.0) ~bound:n (fun bb ~param ~i ->
              B.fadd bb (Var param) (B.index bb xs [ i ]))
        in
        let zs =
          B.mapnest b "zs" [ (B.fresh b "i", n) ] (fun bb ->
              [ B.fadd bb (B.index bb ys [ P.zero ]) (Float 1.0) ])
        in
        ([ B.fadd b (Var sum) (B.index b zs [ P.zero ]) ], [ xs; ys; sum; zs ]))
  in
  match names with
  | [ xs; ys; sum; zs ] ->
      never_last_inside p ~stm:sum xs;
      never_last_inside p ~stm:zs ys;
      Alcotest.(check (list string)) "the loop is xs's last use" [ xs ]
        (lu p sum);
      Alcotest.(check (list string)) "the mapnest is ys's last use" [ ys ]
        (lu p zs)
  | _ -> assert false

(* A body-local array is lastly used at its final read in the body
   (Fig. 5b), not at an earlier one. *)
let test_lastuse_body_local () =
  let p, names =
    annotated "lu_local" ~ret:[ f64 ] (fun b ->
        let reads = ref [] in
        let sum =
          B.loop1 b "sum" f64 (Float 0.0) ~bound:n (fun bb ~param ~i:_ ->
              let ts = fill bb "ts" n 1.0 in
              let x = B.index bb ts [ P.zero ] in
              let y = B.index bb ts [ P.one ] in
              reads := [ ts; var_of x; var_of y ];
              B.fadd bb (Var param) (B.fadd bb x y))
        in
        ([ Var sum ], !reads))
  in
  match names with
  | [ ts; first; last ] ->
      Alcotest.(check (list string)) "not at the first read" [] (lu p first);
      Alcotest.(check (list string)) "at the final read" [ ts ] (lu p last)
  | _ -> assert false

(* A loop-carried parameter belongs to the next iteration: nothing in
   the body lastly uses it, even where the body reads only the fresh
   array it returns, which aliases the parameter. *)
let test_lastuse_carried () =
  let p, names =
    annotated "lu_carried" ~ret:[ arr F64 [ n ] ] (fun b ->
        let xs = fill b "xs" n 1.0 in
        let acc = ref "" in
        let r =
          B.loop1 b "step" (arr F64 [ n ]) (Var xs) ~bound:n
            (fun bb ~param ~i:_ ->
              acc := param;
              let next = fill bb "next" n 2.0 in
              ignore (B.index bb next [ P.zero ]);
              Var next)
        in
        ([ Var r ], [ !acc; r ]))
  in
  match names with
  | [ acc; r ] -> never_last_inside p ~stm:r acc
  | _ -> assert false

(* An array read only in one arm of an [if] is lastly used in that arm
   and, for the enclosing block, at the [if] itself. *)
let test_lastuse_if_arm () =
  let p, names =
    annotated "lu_if"
      ~params:[ pat_elem "n" i64; pat_elem "c" boolt ]
      ~ret:[ f64 ]
      (fun b ->
        let xs = fill b "xs" n 1.0 in
        let read = ref "" in
        let r =
          B.if_ b "r" (Var "c")
            (fun tb ->
              let x = B.index tb xs [ P.zero ] in
              read := var_of x;
              [ x ])
            (fun _ -> [ Float 0.0 ])
        in
        ([ Var (List.hd r) ], [ xs; !read; List.hd r ]))
  in
  match names with
  | [ xs; read; r ] ->
      Alcotest.(check (list string)) "in the arm" [ xs ] (lu p read);
      Alcotest.(check (list string)) "at the if" [ xs ] (lu p r)
  | _ -> assert false

(* A slice aliases its source: the source's last direct read is not
   its last use while the slice is still read, and the slice's last
   read is the last use of both. *)
let test_lastuse_slice () =
  let p, names =
    annotated "lu_slice" ~ret:[ f64 ] (fun b ->
        let xs = fill b "xs" n 1.0 in
        let s = B.bind b "s" (ESlice (xs, STriplet [ B.range P.zero n ])) in
        let x = B.index b xs [ P.zero ] in
        let y = B.index b s [ P.zero ] in
        ([ B.fadd b x y ], [ xs; s; var_of x; var_of y ]))
  in
  match names with
  | [ xs; s; x; y ] ->
      Alcotest.(check (list string)) "not at the slice" [] (lu p s);
      Alcotest.(check (list string)) "not at the source's last read" []
        (lu p x);
      Alcotest.(check (list string)) "at the slice's last read"
        (List.sort compare [ xs; s ])
        (lu p y)
  | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Memory introduction: anti-unified if                               *)
(* ---------------------------------------------------------------- *)

let mi_if_prog () =
  B.prog "mi" ~ctx:ctx_n
    ~params:[ pat_elem "n" i64; pat_elem "c" boolt ]
    ~ret:[ arr F64 [ n; n ] ]
    (fun b ->
      let iv = B.fresh b "i" and jv = B.fresh b "j" in
      let xs =
        B.mapnest b "xs" [ (iv, n); (jv, n) ] (fun _bb -> [ Float 1.0 ])
      in
      let r =
        B.if_ b "r" (Var "c")
          (fun tb -> [ Var (B.bind tb "t" (ETranspose (xs, [ 1; 0 ]))) ])
          (fun fb -> [ Var (B.bind fb "f" (EAtom (Var xs))) ])
      in
      [ Var (List.hd r) ])

let test_memintro_if_existential () =
  let prog = mi_if_prog () in
  let m = Core.Memintro.introduce (Clone.clone_prog prog) in
  (* the if statement's pattern must follow the [mem, witness...,
     array] grouping: a TMem binder, i64 witnesses, then the array
     annotated with that very block *)
  let if_stm =
    List.find
      (fun s -> match s.exp with EIf _ -> true | _ -> false)
      m.body.stms
  in
  (match if_stm.pat with
  | mem_pe :: rest ->
      Alcotest.(check bool) "group starts with TMem" true (mem_pe.pt = TMem);
      let wits, arr =
        match List.rev rest with
        | arr :: rwits -> (List.rev rwits, arr)
        | [] -> Alcotest.fail "no array result in the group"
      in
      Alcotest.(check bool) "witnesses are i64" true
        (wits <> [] && List.for_all (fun pe -> pe.pt = TScalar I64) wits);
      Alcotest.(check bool) "array result is an array" true
        (is_array_typ arr.pt);
      (match arr.pmem with
      | Some mi ->
          Alcotest.(check string) "array lives in the existential block"
            mem_pe.pv mi.block;
          Alcotest.(check bool) "witnesses appear in the index function" true
            (List.exists
               (fun pe -> List.mem pe.pv (Lmads.Ixfn.vars mi.ixfn))
               wits)
      | None -> Alcotest.fail "array result lacks a memory annotation")
  | [] -> Alcotest.fail "empty if pattern");
  (* the annotated program round-trips through the type checker *)
  Check.check_prog m;
  (* and still runs: both branches (transposed and row-major layouts) *)
  List.iter
    (fun cond ->
      let expect = Interp.run prog [ Value.VInt 3; Value.VBool cond ] in
      let got = Interp.run m [ Value.VInt 3; Value.VBool cond ] in
      Alcotest.(check bool) "annotated program unchanged semantically" true
        (List.for_all2 Value.bit_equal expect got))
    [ true; false ]

(* ---------------------------------------------------------------- *)
(* Names: pass supplies and proof-local binders                       *)
(* ---------------------------------------------------------------- *)

(* A pass draws names from a supply seeded by its input, so the names
   it adds (here memory blocks and anti-unification existentials) do
   not depend on what else the process built. *)
let test_pass_names_pure () =
  let prog = mi_if_prog () in
  let intro () =
    Pretty.prog_to_string (Core.Memintro.introduce (Clone.clone_prog prog))
  in
  let first = intro () in
  ignore
    (B.prog "unrelated" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ]
       ~ret:[ arr F64 [ n ] ]
       (fun b -> [ Var (fill b "xs" n 1.0) ]));
  Alcotest.(check string) "memintro prints the same program" first (intro ())

(* A proof-local binder is named after the variable it stands for and
   refused when the query already mentions that name. *)
let test_binder_names () =
  let module Refset = Lmads.Refset in
  let i = P.var "i" in
  let ctx = Pr.add_range ctx_n "i" ~lo:P.zero ~hi:(P.sub n P.one) () in
  let w = Refset.of_lmad (Lmads.Lmad.make i [ Lmads.Lmad.dim n P.one ]) in
  let name ctx sets = Core.Binder.name ~where:"test" "othr" "i" ctx sets in
  Alcotest.(check string) "named after its variable" "othr#i" (name ctx [ w ]);
  let refused what ctx sets =
    match name ctx sets with
    | b -> Alcotest.failf "%s: %s accepted" what b
    | exception Core.Fault.Fault (Core.Fault.Internal { where = "test"; _ })
      ->
        ()
  in
  let other = P.var "othr#i" in
  refused "bound in the context"
    (Pr.add_range ctx "othr#i" ~lo:P.zero ())
    [ w ];
  refused "in another variable's bound"
    (Pr.add_range ctx "j" ~hi:other ())
    [ w ];
  refused "free in a reference set" ctx
    [ Refset.empty; Refset.subst "i" other w ]

(* ---------------------------------------------------------------- *)
(* Randomized: NW over random shapes stays correct & short-circuits  *)
(* ---------------------------------------------------------------- *)

let prop_nw_random_sizes =
  QCheck.Test.make ~name:"NW pipeline correct for random (q,b)" ~count:(Qcount.count 6)
    (QCheck.make
       ~print:(fun (q, b) -> Printf.sprintf "q=%d b=%d" q b)
       QCheck.Gen.(pair (int_range 2 4) (int_range 2 5)))
    (fun (q, b) ->
      let args = Benchsuite.Nw.small_args ~q ~b in
      let v = Benchsuite.Runner.validate Benchsuite.Nw.prog args in
      List.for_all snd v.Benchsuite.Runner.ok
      && v.Benchsuite.Runner.copies_opt = 0)

(* ---------------------------------------------------------------- *)
(* The shared scalar table                                           *)
(* ---------------------------------------------------------------- *)

(* [let z : i64 = a op b] for every i64 operator, with atoms drawn from
   constants, [x] and [y]: [Facts.scalar_def] defines [z] exactly for
   addition, subtraction and multiplication, as the polynomial the
   interpreter's result equals, and refuses the rest. *)
let prop_scalar_def_sound =
  let atom =
    QCheck.Gen.(
      oneof
        [
          map (fun c -> Int c) (int_range (-20) 20);
          return (Var "x");
          return (Var "y");
        ])
  in
  QCheck.Test.make ~name:"Facts.scalar_def agrees with the interpreter"
    ~count:(Qcount.count 200)
    (QCheck.make
       ~print:(fun (op, a, b, (x, y)) ->
         Printf.sprintf "z = %s at x=%d y=%d"
           (Pretty.exp_to_string (EBin (op, a, b)))
           x y)
       QCheck.Gen.(
         quad
           (oneofl [ Add; Sub; Mul; Div; Rem; Min; Max ])
           atom atom
           (pair (int_range (-50) 50) (int_range (-50) 50))))
    (fun (op, a, b, (x, y)) ->
      let s = stm [ pat_elem "z" i64 ] (EBin (op, a, b)) in
      match (Core.Facts.scalar_def s, op) with
      | Some (z, p), (Add | Sub | Mul) -> (
          let prog =
            {
              name = "scalar";
              params = [ pat_elem "x" i64; pat_elem "y" i64 ];
              body = block [ s ] [ Var "z" ];
              ret = [ i64 ];
              ctx = Pr.empty;
            }
          in
          let env = function "x" -> x | "y" -> y | v -> failwith v in
          z = "z"
          &&
          match Interp.run prog [ Value.VInt x; Value.VInt y ] with
          | [ Value.VInt r ] -> r = P.eval env p
          | _ -> false)
      | None, (Div | Rem | Min | Max) -> true
      | _ -> false)

(* A cyclic table has no fixpoint: resolution leaves its input alone. *)
let test_resolve_cyclic () =
  let table =
    P.SM.(empty |> add "a" (P.add (P.var "b") P.one) |> add "b" (P.var "a"))
  in
  let input = P.add (P.var "a") (c 2) in
  Alcotest.(check bool)
    "input returned" true
    (P.equal input (Core.Facts.resolve table input))

(* The variants in ladder order, under their names, and the record's
   own programs rather than copies. *)
let test_variants_ladder () =
  let c = Core.Pipeline.compile Benchsuite.Hotspot.prog in
  let vs = Core.Pipeline.variants c in
  Alcotest.(check (list string))
    "ladder order" [ "unopt"; "opt"; "reuse"; "pack" ] (List.map fst vs);
  Alcotest.(check (list string))
    "variant_names" (List.map fst vs) Core.Pipeline.variant_names;
  Alcotest.(check bool) "the record's own programs" true
    (List.for_all2 ( == ) (List.map snd vs)
       Core.Pipeline.[ c.unopt; c.opt; c.reuse; c.pack ])

let tests =
  [
    Alcotest.test_case "Fig. 1 left" `Quick test_fig1_left;
    Alcotest.test_case "Fig. 1 right (negative)" `Quick test_fig1_right;
    Alcotest.test_case "Fig. 4a concat" `Quick test_fig4a_concat;
    Alcotest.test_case "concat bs bs (footnote 17)" `Quick
      test_concat_same_array_twice;
    Alcotest.test_case "Fig. 4b conflicting use (negative)" `Quick
      test_fig4b_conflicting_use;
    Alcotest.test_case "Fig. 4b disjoint use" `Quick test_fig4b_disjoint_use;
    Alcotest.test_case "invertible transpose chain" `Quick
      test_invertible_transpose_chain;
    Alcotest.test_case "non-invertible slice chain (negative)" `Quick
      test_noninvertible_slice_chain;
    Alcotest.test_case "Fig. 5a if candidate" `Quick test_fig5a_if;
    Alcotest.test_case "Fig. 6a transitive chaining" `Quick
      test_fig6a_transitive;
    Alcotest.test_case "Fig. 6b mapnest result" `Quick test_fig6b_mapnest;
    Alcotest.test_case "allocation hoisting" `Quick test_hoist_allocs_first;
    Alcotest.test_case "last-use annotations" `Quick test_lastuse_annotations;
    Alcotest.test_case "last use: free in a body" `Quick
      test_lastuse_free_in_body;
    Alcotest.test_case "last use: body-local array" `Quick
      test_lastuse_body_local;
    Alcotest.test_case "last use: loop-carried parameter" `Quick
      test_lastuse_carried;
    Alcotest.test_case "last use: one if arm" `Quick test_lastuse_if_arm;
    Alcotest.test_case "last use: a slice keeps its source" `Quick
      test_lastuse_slice;
    Alcotest.test_case "memintro if existentials" `Quick
      test_memintro_if_existential;
    Alcotest.test_case "pass names depend on the input alone" `Quick
      test_pass_names_pure;
    Alcotest.test_case "proof-local binders" `Quick test_binder_names;
    Alcotest.test_case "resolve: a cyclic table is the identity" `Quick
      test_resolve_cyclic;
    Alcotest.test_case "pipeline: variants in ladder order" `Quick
      test_variants_ladder;
    QCheck_alcotest.to_alcotest prop_nw_random_sizes;
    QCheck_alcotest.to_alcotest prop_scalar_def_sound;
  ]
