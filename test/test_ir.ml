(* Tests for the array IR: interpreter semantics, the type/uniqueness
   checker, and qcheck properties relating change-of-layout operations
   to their index-function counterparts. *)

open Ir
open Ast
module P = Symalg.Poly
module B = Build

let c = P.const
let vint i = Value.VInt i

let farr xs = Value.VArr (Value.of_floats [ Array.length xs ] xs)

let run1 p args =
  match Interp.run p args with [ v ] -> v | _ -> Alcotest.fail "arity"

let check_floats msg expected v =
  match v with
  | Value.VArr a ->
      Alcotest.(check (list (float 1e-9))) msg expected
        (Array.to_list (Value.float_data a))
  | _ -> Alcotest.fail "not an array"

(* ---------------------------------------------------------------- *)
(* Interpreter basics                                                *)
(* ---------------------------------------------------------------- *)

let test_map_iota () =
  let n = P.var "n" in
  let p =
    B.prog "sq" ~params:[ pat_elem "n" i64 ] ~ret:[ arr I64 [ n ] ]
      (fun b ->
        let xs = B.bind b "xs" (EIota n) in
        let ys =
          B.mapnest b "ys" [ ("i", n) ] (fun bb ->
              let x = B.index bb xs [ P.var "i" ] in
              [ B.binop bb Mul x x ])
        in
        [ Var ys ])
  in
  match run1 p [ vint 5 ] with
  | Value.VArr a ->
      Alcotest.(check (list int)) "squares" [ 0; 1; 4; 9; 16 ]
        (Array.to_list (Value.int_data a))
  | _ -> Alcotest.fail "not an array"

let test_loop_factorial () =
  let p =
    B.prog "fact" ~params:[ pat_elem "n" i64 ] ~ret:[ i64 ]
      (fun b ->
        let r =
          B.loop b "f"
            [ ("acc", i64, Int 1) ]
            ~var:"x" ~bound:(P.var "n")
            (fun bb ->
              [
                B.binop bb Mul (Var "acc")
                  (B.binop bb Add (B.idx bb (P.var "x")) (Int 1));
              ])
        in
        [ Var (List.hd r) ])
  in
  Alcotest.(check bool) "5! = 120" true (run1 p [ vint 5 ] = Value.VInt 120)

let test_transpose_reverse () =
  let n = P.var "n" and m = P.var "m" in
  let p =
    B.prog "tr"
      ~params:[ pat_elem "n" i64; pat_elem "m" i64; pat_elem "a" (arr F64 [ n; m ]) ]
      ~ret:[ arr F64 [ m; n ] ]
      (fun b -> [ Var (B.bind b "t" (ETranspose ("a", [ 1; 0 ]))) ])
  in
  let a = Value.VArr (Value.of_floats [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |]) in
  check_floats "transpose" [ 1.; 4.; 2.; 5.; 3.; 6. ] (run1 p [ vint 2; vint 3; a ])

let test_concat () =
  let p =
    B.prog "cc"
      ~params:[ pat_elem "a" (arr F64 [ c 2 ]); pat_elem "b" (arr F64 [ c 3 ]) ]
      ~ret:[ arr F64 [ c 5 ] ]
      (fun b -> [ Var (B.bind b "c" (EConcat [ "a"; "b" ])) ])
  in
  check_floats "concat" [ 1.; 2.; 3.; 4.; 5. ]
    (run1 p [ farr [| 1.; 2. |]; farr [| 3.; 4.; 5. |] ])

let test_update_triplet () =
  let p =
    B.prog "upd"
      ~params:[ pat_elem "a" (arr F64 [ c 6 ]); pat_elem "x" (arr F64 [ c 2 ]) ]
      ~ret:[ arr F64 [ c 6 ] ]
      (fun b ->
        [
          Var
            (B.bind b "r"
               (EUpdate
                  {
                    dst = "a";
                    slc = STriplet [ SRange { start = c 1; len = c 2; step = c 2 } ];
                    src = SrcArr "x";
                  }));
        ])
  in
  check_floats "strided update" [ 0.; 9.; 2.; 8.; 4.; 5. ]
    (run1 p [ farr [| 0.; 1.; 2.; 3.; 4.; 5. |]; farr [| 9.; 8. |] ])

let test_reduce_argmin () =
  let p =
    B.prog "ra"
      ~params:[ pat_elem "a" (arr F64 [ c 4 ]) ]
      ~ret:[ f64; f64; i64 ]
      (fun b ->
        let s = B.bind b "s" (EReduce { op = Add; ne = Float 0.0; arr = "a" }) in
        let pair = B.bind_multi ~names:[ "mn"; "ix" ] b (EArgmin "a") in
        [ Var s; Var (List.nth pair 0); Var (List.nth pair 1) ])
  in
  match Interp.run p [ farr [| 3.; 1.; 4.; 1.5 |] ] with
  | [ Value.VFloat s; Value.VFloat mn; Value.VInt ix ] ->
      Alcotest.(check (float 1e-9)) "sum" 9.5 s;
      Alcotest.(check (float 1e-9)) "min" 1.0 mn;
      Alcotest.(check int) "argmin" 1 ix
  | _ -> Alcotest.fail "bad result"

let test_if_branches () =
  let p =
    B.prog "br" ~params:[ pat_elem "x" i64 ] ~ret:[ i64 ]
      (fun b ->
        let cnd = B.cmp b CLt (Var "x") (Int 10) in
        let r = B.if_ b "r" cnd (fun _ -> [ Int 1 ]) (fun _ -> [ Int 2 ]) in
        [ Var (List.hd r) ])
  in
  Alcotest.(check bool) "then" true (run1 p [ vint 3 ] = Value.VInt 1);
  Alcotest.(check bool) "else" true (run1 p [ vint 30 ] = Value.VInt 2)

let test_lmad_update_duplicate_rejected () =
  (* an LMAD update whose index set self-overlaps must be rejected at
     run time (dynamic check of section III-B) *)
  let p =
    B.prog "dup"
      ~params:
        [ pat_elem "a" (arr F64 [ c 4 ]); pat_elem "x" (arr F64 [ c 2; c 2 ]) ]
      ~ret:[ arr F64 [ c 4 ] ]
      (fun b ->
        [
          Var
            (B.bind b "r"
               (EUpdate
                  {
                    dst = "a";
                    slc =
                      SLmad
                        (Lmads.Lmad.make P.zero
                           [ Lmads.Lmad.dim (c 2) (c 0); Lmads.Lmad.dim (c 2) (c 1) ]);
                    src = SrcArr "x";
                  }));
        ])
  in
  Alcotest.check_raises "duplicate offsets rejected"
    (Interp.Runtime_error "interp: LMAD update on a writes offset 0 twice")
    (fun () ->
      ignore
        (Interp.run p
           [
             farr [| 0.; 0.; 0.; 0. |];
             Value.VArr (Value.of_floats [ 2; 2 ] [| 1.; 2.; 3.; 4. |]);
           ]))

(* ---------------------------------------------------------------- *)
(* Scoping: what resolving names to slots must keep                  *)
(* ---------------------------------------------------------------- *)

(* Built by hand, without the checker: these programs rebind names and
   mention names nothing binds. *)
let raw name params body =
  { name; params; body; ret = []; ctx = Symalg.Prover.empty }

let let_ v t e = stm [ pat_elem v t ] e

(* [x] rebound inside an if arm, a loop body (as loop parameter, then as
   a statement), and a map body (as nest index, then as a statement):
   each scope sees its own binding, and [x] is the parameter again once
   the scope ends. *)
let test_rebinding_is_scoped () =
  let p =
    raw "shadow"
      [ pat_elem "x" i64; pat_elem "c" boolt ]
      (block
         [
           let_ "r1" i64
             (EIf
                {
                  cond = Var "c";
                  tb = block [ let_ "x" i64 (EAtom (Int 100)) ] [ Var "x" ];
                  fb = block [] [ Var "x" ];
                });
           let_ "a" i64 (EAtom (Var "x"));
           let_ "r2" i64
             (ELoop
                {
                  params = [ (pat_elem "x" i64, Var "x") ];
                  var = "i";
                  bound = c 3;
                  body =
                    block [ let_ "x" i64 (EBin (Add, Var "x", Int 1)) ] [ Var "x" ];
                });
           let_ "b" i64 (EAtom (Var "x"));
           let_ "ys" (arr I64 [ c 2 ])
             (EMap
                {
                  nest = [ ("x", c 2) ];
                  body =
                    block [ let_ "x" i64 (EBin (Mul, Var "x", Int 7)) ] [ Var "x" ];
                });
           let_ "d" i64 (EAtom (Var "x"));
         ]
         [ Var "r1"; Var "a"; Var "r2"; Var "b"; Var "ys"; Var "d" ])
  in
  match Interp.run p [ vint 5; Value.VBool true ] with
  | [ r1; a; r2; b; Value.VArr ys; d ] ->
      let check msg want got = Alcotest.(check bool) msg true (got = vint want) in
      check "if arm sees its x" 100 r1;
      check "x after the if" 5 a;
      check "loop carries its x" 8 r2;
      check "x after the loop" 5 b;
      Alcotest.(check (list int)) "map sees its x" [ 0; 7 ]
        (Array.to_list (Value.int_data ys));
      check "x after the map" 5 d
  | _ -> Alcotest.fail "bad result"

(* A name nothing binds raises only when it is evaluated, with the
   message it always had. *)
let test_unbound_only_when_evaluated () =
  let p =
    raw "ghost" [ pat_elem "c" boolt ]
      (block
         [
           let_ "r" i64
             (EIf
                {
                  cond = Var "c";
                  tb =
                    block
                      [ let_ "g" i64 (EBin (Add, Var "ghost", Int 1)) ]
                      [ Var "g" ];
                  fb = block [] [ Int 2 ];
                });
         ]
         [ Var "r" ])
  in
  Alcotest.(check bool) "untaken arm" true
    (Interp.run p [ Value.VBool false ] = [ vint 2 ]);
  Alcotest.check_raises "taken arm"
    (Interp.Runtime_error "interp: unbound variable ghost") (fun () ->
      ignore (Interp.run p [ Value.VBool true ]))

(* A run depends on its program and arguments alone: nothing, memory
   tokens included, carries over from an earlier run of it or of
   another program. *)
let test_runs_are_independent () =
  let floats name k =
    raw name [ pat_elem "n" i64 ]
      (block
         [
           let_ "m" TMem (EAlloc (P.var "n"));
           let_ "ys" (arr F64 [ P.var "n" ])
             (EMap
                {
                  nest = [ ("i", P.var "n") ];
                  body =
                    block
                      [
                        let_ "f" f64 (EUn (ToF64, Var "i"));
                        let_ "y" f64 (EBin (Div, Var "f", Float k));
                      ]
                      [ Var "y" ];
                });
         ]
         [ Var "m"; Var "ys" ])
  in
  let p = floats "p" 3. and q = floats "q" 7. in
  let first = Interp.run p [ vint 5 ] in
  ignore (Interp.run q [ vint 9 ]);
  let again = Interp.run p [ vint 5 ] in
  Alcotest.(check bool) "bit-equal" true
    (List.for_all2 Value.bit_equal first again);
  Alcotest.(check bool) "token numbered per run" true
    (List.hd again = Value.VMem 1)

(* ---------------------------------------------------------------- *)
(* Checker: negative cases                                            *)
(* ---------------------------------------------------------------- *)

let expect_type_error name f =
  match f () with
  | exception Check.Type_error _ -> ()
  | _ -> Alcotest.failf "%s: checker accepted an ill-formed program" name

let test_use_after_consume () =
  expect_type_error "use after update" (fun () ->
      B.prog "bad"
        ~params:[ pat_elem "a" (arr F64 [ c 4 ]) ]
        ~ret:[ f64 ]
        (fun b ->
          let _ =
            B.bind b "a2"
              (EUpdate
                 {
                   dst = "a";
                   slc = STriplet [ SFix (c 0) ];
                   src = SrcScalar (Float 1.0);
                 })
          in
          (* reading the consumed array must be rejected *)
          [ B.index b "a" [ c 1 ] ]))

let test_alias_consume () =
  expect_type_error "alias consumed transitively" (fun () ->
      B.prog "bad2"
        ~params:[ pat_elem "a" (arr F64 [ c 4 ]) ]
        ~ret:[ f64 ]
        (fun b ->
          let v =
            B.bind b "v"
              (ESlice ("a", STriplet [ SRange { start = c 0; len = c 2; step = c 1 } ]))
          in
          let _ =
            B.bind b "a2"
              (EUpdate
                 {
                   dst = "a";
                   slc = STriplet [ SFix (c 0) ];
                   src = SrcScalar (Float 1.0);
                 })
          in
          (* v aliases a, which was consumed *)
          [ B.index b v [ c 0 ] ]))

let test_shape_mismatch () =
  expect_type_error "update shape mismatch" (fun () ->
      B.prog "bad3"
        ~params:[ pat_elem "a" (arr F64 [ c 6 ]); pat_elem "x" (arr F64 [ c 3 ]) ]
        ~ret:[ arr F64 [ c 6 ] ]
        (fun b ->
          [
            Var
              (B.bind b "r"
                 (EUpdate
                    {
                      dst = "a";
                      slc = STriplet [ SRange { start = c 0; len = c 2; step = c 1 } ];
                      src = SrcArr "x";
                    }));
          ]))

(* ---------------------------------------------------------------- *)
(* qcheck: views agree with index functions                          *)
(* ---------------------------------------------------------------- *)

let prop_transpose_interp =
  QCheck.Test.make ~name:"interp transpose = ixfn permute" ~count:(Qcount.count 100)
    (QCheck.make
       ~print:(fun (n, m) -> Printf.sprintf "%dx%d" n m)
       QCheck.Gen.(pair (int_range 1 6) (int_range 1 6)))
    (fun (n, m) ->
      let data = Array.init (n * m) float_of_int in
      let p =
        B.prog "t"
          ~params:[ pat_elem "a" (arr F64 [ c n; c m ]) ]
          ~ret:[ arr F64 [ c m; c n ] ]
          (fun b -> [ Var (B.bind b "t" (ETranspose ("a", [ 1; 0 ]))) ])
      in
      match Interp.run p [ Value.VArr (Value.of_floats [ n; m ] data) ] with
      | [ Value.VArr out ] ->
          let ix = Lmads.Ixfn.transpose (Lmads.Ixfn.row_major [ c n; c m ]) in
          let got = Value.float_data out in
          List.for_all
            (fun (i, j) ->
              got.((i * n) + j)
              = data.(Lmads.Ixfn.apply_int (fun _ -> 0) ix [ i; j ]))
            (List.concat_map (fun i -> List.init n (fun j -> (i, j)))
               (List.init m Fun.id))
      | _ -> false)

let prop_reverse_involution =
  QCheck.Test.make ~name:"interp reverse twice = id" ~count:(Qcount.count 100)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 20))
    (fun n ->
      let data = Array.init n (fun i -> float_of_int (i * 7 mod 13)) in
      let p =
        B.prog "rr"
          ~params:[ pat_elem "a" (arr F64 [ c n ]) ]
          ~ret:[ arr F64 [ c n ] ]
          (fun b ->
            let r1 = B.bind b "r1" (EReverse ("a", 0)) in
            [ Var (B.bind b "r2" (EReverse (r1, 0))) ])
      in
      match Interp.run p [ Value.VArr (Value.of_floats [ n ] data) ] with
      | [ Value.VArr out ] -> Value.float_data out = data
      | _ -> false)

let prop_slice_then_update_roundtrip =
  QCheck.Test.make ~name:"A with [s] = A[s] is identity" ~count:(Qcount.count 100)
    (QCheck.make
       ~print:(fun (n, (a, (l, k))) -> Printf.sprintf "n=%d a=%d l=%d k=%d" n a l k)
       QCheck.Gen.(
         pair (int_range 1 12)
           (pair (int_range 0 3) (pair (int_range 1 4) (int_range 1 3)))))
    (fun (n, (a, (l, k))) ->
      QCheck.assume (a + ((l - 1) * k) < n);
      let data = Array.init n float_of_int in
      let p =
        B.prog "rt"
          ~params:[ pat_elem "arr" (arr F64 [ c n ]) ]
          ~ret:[ arr F64 [ c n ] ]
          (fun b ->
            let s =
              B.bind b "s"
                (ESlice
                   ("arr", STriplet [ SRange { start = c a; len = c l; step = c k } ]))
            in
            [
              Var
                (B.bind b "r"
                   (EUpdate
                      {
                        dst = "arr";
                        slc = STriplet [ SRange { start = c a; len = c l; step = c k } ];
                        src = SrcArr s;
                      }));
            ])
      in
      match Interp.run p [ Value.VArr (Value.of_floats [ n ] data) ] with
      | [ Value.VArr out ] -> Value.float_data out = data
      | _ -> false)

let test_bit_equal () =
  let f x = Value.VFloat x in
  let a xs = Value.VArr (Value.of_floats [ Array.length xs ] xs) in
  Alcotest.(check bool) "-0.0 vs 0.0" false
    (Value.bit_equal (f (-0.0)) (f 0.0));
  Alcotest.(check bool) "NaN vs itself" true
    (Value.bit_equal (f Float.nan) (f Float.nan));
  Alcotest.(check bool) "arrays: -0.0 vs 0.0" false
    (Value.bit_equal (a [| 1.; -0.0 |]) (a [| 1.; 0.0 |]));
  Alcotest.(check bool) "arrays: NaN vs itself" true
    (Value.bit_equal (a [| 1.; Float.nan |]) (a [| 1.; Float.nan |]));
  Alcotest.(check bool) "ints" true (Value.bit_equal (Value.VInt 3) (Value.VInt 3))

(* Float literals print exactly: two programs that differ only in a
   constant print differently, and infinity keeps its spelling. *)
let test_pretty_floats () =
  let show f = Pretty.exp_to_string (EAtom (Float f)) in
  Alcotest.(check bool) "0.1 +. 0.2 is not 0.3" false
    (show (0.1 +. 0.2) = show 0.3);
  Alcotest.(check string) "shortest digits" "0.3f" (show 0.3);
  Alcotest.(check string) "1 - 0.8" "0.19999999999999996f" (show (1.0 -. 0.8));
  Alcotest.(check string) "infinity" "inff" (show infinity)

(* A program owns its name supply: building another program in between
   does not move a single name the first one draws. *)
let test_build_pure () =
  let n = P.var "n" in
  let build name =
    B.prog name ~params:[ pat_elem "n" i64 ] ~ret:[ arr I64 [ n ] ]
      (fun b ->
        let xs = B.bind b "xs" (EIota n) in
        let i = B.fresh b "i" in
        [
          Var
            (B.mapnest b "ys" [ (i, n) ] (fun bb ->
                 [ B.index bb xs [ P.var i ] ]));
        ])
  in
  let first = Pretty.prog_to_string (build "first") in
  ignore (build "unrelated");
  Alcotest.(check string) "same IR" first
    (Pretty.prog_to_string (build "first"))

let tests =
  [
    Alcotest.test_case "map over iota" `Quick test_map_iota;
    Alcotest.test_case "loop factorial" `Quick test_loop_factorial;
    Alcotest.test_case "transpose" `Quick test_transpose_reverse;
    Alcotest.test_case "concat" `Quick test_concat;
    Alcotest.test_case "strided update" `Quick test_update_triplet;
    Alcotest.test_case "reduce + argmin" `Quick test_reduce_argmin;
    Alcotest.test_case "if branches" `Quick test_if_branches;
    Alcotest.test_case "LMAD update dynamic check" `Quick
      test_lmad_update_duplicate_rejected;
    Alcotest.test_case "rebinding is scoped" `Quick test_rebinding_is_scoped;
    Alcotest.test_case "unbound names raise only when evaluated" `Quick
      test_unbound_only_when_evaluated;
    Alcotest.test_case "interpreter runs are independent" `Quick
      test_runs_are_independent;
    Alcotest.test_case "checker: use after consume" `Quick
      test_use_after_consume;
    Alcotest.test_case "checker: alias consumed" `Quick test_alias_consume;
    Alcotest.test_case "checker: shape mismatch" `Quick test_shape_mismatch;
    Alcotest.test_case "bit_equal compares float bits" `Quick test_bit_equal;
    Alcotest.test_case "float literals print exactly" `Quick test_pretty_floats;
    Alcotest.test_case "Build.prog is a pure function of its arguments"
      `Quick test_build_pure;
    QCheck_alcotest.to_alcotest prop_transpose_interp;
    QCheck_alcotest.to_alcotest prop_reverse_involution;
    QCheck_alcotest.to_alcotest prop_slice_then_update_roundtrip;
  ]
