(* Tests for the LMAD library: index-function transformations (Fig. 3),
   loop aggregation (section II-B), anti-unification (section IV-C) and
   the non-overlap test (section V-C, Fig. 9), including qcheck
   soundness properties against brute-force enumeration. *)

module P = Symalg.Poly
module Pr = Symalg.Prover
open Lmads

let v = P.var
let c = P.const

(* ---------------------------------------------------------------- *)
(* LMAD basics                                                       *)
(* ---------------------------------------------------------------- *)

let test_row_col_major () =
  let rm = Lmad.row_major [ v "n"; v "m" ] in
  let cm = Lmad.col_major [ v "n"; v "m" ] in
  (* L1 = 0 + {(n : m)(m : 1)}, L2 = 0 + {(n : 1)(m : n)} (section IV-A) *)
  Alcotest.(check bool) "row major"
    true
    (Lmad.equal rm (Lmad.make P.zero [ Lmad.dim (v "n") (v "m"); Lmad.dim (v "m") P.one ]));
  Alcotest.(check bool) "col major"
    true
    (Lmad.equal cm (Lmad.make P.zero [ Lmad.dim (v "n") P.one; Lmad.dim (v "m") (v "n") ]))

let test_apply () =
  let rm = Lmad.row_major [ c 4; c 5 ] in
  let env _ = 0 in
  Alcotest.(check int) "rm(2,3)" 13 (Lmad.apply_int env rm [ 2; 3 ]);
  let cm = Lmad.col_major [ c 4; c 5 ] in
  Alcotest.(check int) "cm(2,3)" 14 (Lmad.apply_int env cm [ 2; 3 ])

let test_slice_column () =
  (* extract column i of a row-major n x m matrix: offset i, dims (n, m) *)
  let rm = Lmad.row_major [ v "n"; v "m" ] in
  let sl =
    Lmad.slice
      [ Lmad.Range { start = P.zero; len = v "n"; step = P.one }; Lmad.Fix (v "i") ]
      rm
  in
  Alcotest.(check bool) "column slice"
    true
    (Lmad.equal sl (Lmad.make (v "i") [ Lmad.dim (v "n") (v "m") ]))

let test_transpose_involution () =
  let rm = Lmad.row_major [ v "n"; v "m" ] in
  Alcotest.(check bool) "(M^T)^T = M" true
    (Lmad.equal rm (Lmad.transpose (Lmad.transpose rm)))

let test_reverse_involution () =
  let rm = Lmad.row_major [ v "n" ] in
  Alcotest.(check bool) "reverse . reverse = id" true
    (Lmad.equal rm (Lmad.reverse 0 (Lmad.reverse 0 rm)))

let test_eval_points () =
  (* 1 + {(3 : 2)} = {1, 3, 5} *)
  let l = Lmad.make P.one [ Lmad.dim (c 3) (c 2) ] in
  Alcotest.(check (list int)) "points" [ 1; 3; 5 ]
    (Lmad.eval_points (fun _ -> 0) l)

let test_expand_loop () =
  (* section II-B: W_i = t + i*m + {(n : k)} aggregated over i < m
     gives t + {(m : m), (n : k)} *)
  let ctx = Pr.empty in
  let wi =
    Lmad.make
      (P.add (v "t") (P.mul (v "i") (v "m")))
      [ Lmad.dim (v "n") (v "k") ]
  in
  match Lmad.expand_loop ctx "i" ~count:(v "m") wi with
  | Some w ->
      Alcotest.(check bool) "aggregated" true
        (Lmad.equal w
           (Lmad.make (v "t")
              [ Lmad.dim (v "m") (v "m"); Lmad.dim (v "n") (v "k") ]))
  | None -> Alcotest.fail "expand_loop failed"

let test_expand_loop_datadep () =
  (* offset j*n + j with j iteration-variant (not the loop var): the
     offset is not linear in the loop variable i -> fails only if i
     actually appears nonlinearly; here i is absent so expansion is the
     identity *)
  let ctx = Pr.empty in
  let l = Lmad.make (P.mul (v "j") (v "n")) [ Lmad.dim (v "n") P.one ] in
  (match Lmad.expand_loop ctx "i" ~count:(v "m") l with
  | Some l' -> Alcotest.(check bool) "invariant lmad unchanged" true (Lmad.equal l l')
  | None -> Alcotest.fail "should succeed trivially");
  (* nonlinear in the loop var: must fail *)
  let l2 = Lmad.make (P.mul (v "i") (v "i")) [ Lmad.dim (v "n") P.one ] in
  Alcotest.(check bool) "nonlinear fails" true
    (Lmad.expand_loop ctx "i" ~count:(v "m") l2 = None)

(* ---------------------------------------------------------------- *)
(* Fig. 3: chained index-function computation                        *)
(* ---------------------------------------------------------------- *)

let test_fig3 () =
  let ctx = Pr.empty in
  (* as = 0..63              : 0 + {(64 : 1)} *)
  let as_ = Ixfn.row_major [ c 64 ] in
  (* bs = unflatten 8 8 as   : 0 + {(8 : 8), (8 : 1)} *)
  let bs = Ixfn.reshape ctx [ c 8; c 8 ] as_ in
  Alcotest.(check bool) "bs single-lmad" true (Ixfn.is_single bs);
  (* cs = transpose bs       : 0 + {(8 : 1), (8 : 8)} *)
  let cs = Ixfn.transpose bs in
  Alcotest.(check bool) "cs ixfn" true
    (Lmad.equal (Ixfn.head cs)
       (Lmad.make P.zero [ Lmad.dim (c 8) P.one; Lmad.dim (c 8) (c 8) ]));
  (* ds = cs[1:3:2, 4:8:1]   : 33 + {(2 : 2), (4 : 8)} *)
  let ds =
    Ixfn.slice
      [
        Lmad.Range { start = c 1; len = c 2; step = c 2 };
        Lmad.Range { start = c 4; len = c 4; step = c 1 };
      ]
      cs
  in
  Alcotest.(check bool) "ds ixfn" true
    (Lmad.equal (Ixfn.head ds)
       (Lmad.make (c 33) [ Lmad.dim (c 2) (c 2); Lmad.dim (c 4) (c 8) ]));
  (* es = (flatten ds)[2:]   : needs a second LMAD *)
  let flat = Ixfn.reshape ctx [ c 8 ] ds in
  Alcotest.(check bool) "flatten of ds needs chain" false (Ixfn.is_single flat);
  let es =
    Ixfn.slice [ Lmad.Range { start = c 2; len = c 6; step = c 1 } ] flat
  in
  (* es[5] resides at flat offset 59 of the memory of as *)
  Alcotest.(check int) "es[5] -> 59" 59 (Ixfn.apply_int (fun _ -> 0) es [ 5 ])

(* ---------------------------------------------------------------- *)
(* Anti-unification (section IV-C)                                   *)
(* ---------------------------------------------------------------- *)

(* Each anti-unification draws its existentials from its own supply. *)
let fresh () = Ir.Names.fresh (Ir.Names.above [])

let test_antiunify () =
  (* lgg of R(n,m) and C(n,m) = 0 + {(n : a), (m : b)} *)
  let r = Ixfn.row_major [ v "n"; v "m" ] in
  let cmaj = Ixfn.col_major [ v "n"; v "m" ] in
  match Antiunify.ixfns ~fresh:(fresh ()) r cmaj with
  | None -> Alcotest.fail "anti-unification failed"
  | Some { ixfn; bindings } ->
      Alcotest.(check int) "two existentials" 2 (List.length bindings);
      let l = Ixfn.head ixfn in
      Alcotest.(check bool) "offset stays 0" true (P.is_zero (Lmad.offset l));
      (* substituting left values gives back R, right gives C *)
      let to_left =
        List.fold_left
          (fun acc b -> P.SM.add b.Antiunify.exist b.Antiunify.left acc)
          P.SM.empty bindings
      in
      let to_right =
        List.fold_left
          (fun acc b -> P.SM.add b.Antiunify.exist b.Antiunify.right acc)
          P.SM.empty bindings
      in
      Alcotest.(check bool) "lgg[left] = R" true
        (Ixfn.equal (Ixfn.subst_map to_left ixfn) r);
      Alcotest.(check bool) "lgg[right] = C" true
        (Ixfn.equal (Ixfn.subst_map to_right ixfn) cmaj)

let test_antiunify_equal () =
  let r = Ixfn.row_major [ v "n" ] in
  match Antiunify.ixfns ~fresh:(fresh ()) r r with
  | Some { bindings; ixfn } ->
      Alcotest.(check int) "no existentials" 0 (List.length bindings);
      Alcotest.(check bool) "identity" true (Ixfn.equal ixfn r)
  | None -> Alcotest.fail "anti-unification of equal ixfns failed"

let test_antiunify_rank_mismatch () =
  let r1 = Ixfn.row_major [ v "n" ] in
  let r2 = Ixfn.row_major [ v "n"; v "m" ] in
  Alcotest.(check bool) "rank mismatch fails" true
    (Antiunify.ixfns ~fresh:(fresh ()) r1 r2 = None)

(* ---------------------------------------------------------------- *)
(* Non-overlap: Fig. 9                                               *)
(* ---------------------------------------------------------------- *)

let test_nw_nonoverlap () =
  let { Benchsuite.Nw.ctx; w; rvert; rhoriz } = Benchsuite.Nw.fig9 () in
  Alcotest.(check bool) "W # Rvert (Fig. 9)" true (Nonoverlap.disjoint ctx w rvert);
  Alcotest.(check bool) "W # Rhoriz" true (Nonoverlap.disjoint ctx w rhoriz);
  Alcotest.(check bool) "W # W must stay unknown" false
    (Nonoverlap.disjoint ctx w w)

let test_nw_concrete () =
  (* the symbolic claim checked by brute force on several instances *)
  let module IS = Set.Make (Int) in
  let { Benchsuite.Nw.w; rvert; rhoriz; _ } = Benchsuite.Nw.fig9 () in
  List.iter
    (fun (q, b) ->
      let n = (q * b) + 1 in
      for i = 0 to q - 1 do
        let env = function
          | "q" -> q
          | "b" -> b
          | "n" -> n
          | "i" -> i
          | s -> Alcotest.failf "unexpected var %s" s
        in
        let pw = IS.of_list (Lmad.eval_points env w) in
        let pv = IS.of_list (Lmad.eval_points env rvert) in
        let ph = IS.of_list (Lmad.eval_points env rhoriz) in
        Alcotest.(check bool)
          (Printf.sprintf "q=%d b=%d i=%d vert" q b i)
          true
          (IS.is_empty (IS.inter pw pv));
        Alcotest.(check bool)
          (Printf.sprintf "q=%d b=%d i=%d horiz" q b i)
          true
          (IS.is_empty (IS.inter pw ph))
      done)
    [ (2, 2); (3, 3); (2, 5); (5, 2); (4, 4) ]

let test_simple_disjoint () =
  let ctx = Pr.add_range Pr.empty "n" ~lo:(c 1) () in
  (* evens vs odds *)
  let evens = Lmad.make P.zero [ Lmad.dim (v "n") (c 2) ] in
  let odds = Lmad.make P.one [ Lmad.dim (v "n") (c 2) ] in
  Alcotest.(check bool) "evens # odds" true (Nonoverlap.disjoint ctx evens odds);
  (* adjacent halves *)
  let lo = Lmad.make P.zero [ Lmad.dim (v "n") P.one ] in
  let hi = Lmad.make (v "n") [ Lmad.dim (v "n") P.one ] in
  Alcotest.(check bool) "low half # high half" true (Nonoverlap.disjoint ctx lo hi);
  (* overlapping ranges must not be claimed disjoint *)
  let a = Lmad.make P.zero [ Lmad.dim (P.add (v "n") P.one) P.one ] in
  let b = Lmad.make (v "n") [ Lmad.dim (v "n") P.one ] in
  Alcotest.(check bool) "overlap detected" false (Nonoverlap.disjoint ctx a b)

let test_rows_disjoint () =
  (* distinct rows of a matrix: row i vs row j with i < j *)
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "m" ~lo:(c 1) () in
  let ctx = Pr.add_range ctx "i" ~lo:(c 0) () in
  let ctx =
    Pr.add_range ctx "j"
      ~lo:(P.add (v "i") P.one)
      ()
  in
  let row x = Lmad.make (P.mul x (v "m")) [ Lmad.dim (v "m") P.one ] in
  Alcotest.(check bool) "row i # row j (i<j)" true
    (Nonoverlap.disjoint ctx (row (v "i")) (row (v "j")))

(* ---------------------------------------------------------------- *)
(* qcheck: non-overlap soundness against enumeration                 *)
(* ---------------------------------------------------------------- *)

let gen_small_lmad =
  QCheck.Gen.(
    let dim = pair (int_range 1 4) (int_range 1 6) in
    let* ndims = int_range 1 3 in
    let* off = int_range 0 8 in
    let* dims = list_size (return ndims) dim in
    return
      (Lmad.make (c off)
         (List.map (fun (n, s) -> Lmad.dim (c n) (c s)) dims)))

let arb_lmad_pair =
  QCheck.make
    ~print:(fun (a, b) -> Lmad.to_string a ^ " vs " ^ Lmad.to_string b)
    QCheck.Gen.(pair gen_small_lmad gen_small_lmad)

let prop_nonoverlap_sound =
  QCheck.Test.make ~name:"nonoverlap sufficient (never unsound)" ~count:(Qcount.count 500)
    arb_lmad_pair (fun (l1, l2) ->
      let ctx = Pr.empty in
      if Nonoverlap.disjoint ctx l1 l2 then (
        let module IS = Set.Make (Int) in
        let p1 = IS.of_list (Lmad.eval_points (fun _ -> 0) l1) in
        let p2 = IS.of_list (Lmad.eval_points (fun _ -> 0) l2) in
        IS.is_empty (IS.inter p1 p2))
      else true)

let prop_slice_points =
  (* slicing an LMAD = selecting the corresponding subset of points *)
  QCheck.Test.make ~name:"triplet slice = point subset" ~count:(Qcount.count 200)
    (QCheck.make
       ~print:(fun ((n, m), (a, l)) -> Printf.sprintf "n=%d m=%d a=%d l=%d" n m a l)
       QCheck.Gen.(pair (pair (int_range 1 5) (int_range 1 5))
                     (pair (int_range 0 2) (int_range 1 3))))
    (fun ((n, m), (a, l)) ->
      QCheck.assume (a + l <= n);
      let rm = Lmad.row_major [ c n; c m ] in
      let sl =
        Lmad.slice
          [
            Lmad.Range { start = c a; len = c l; step = P.one };
            Lmad.Range { start = P.zero; len = c m; step = P.one };
          ]
          rm
      in
      let pts = Lmad.eval_points (fun _ -> 0) sl in
      let expected =
        List.concat
          (List.init l (fun i -> List.init m (fun j -> ((a + i) * m) + j)))
      in
      pts = expected)

let prop_expand_loop_sound =
  (* aggregation over i<k = union of per-i point sets *)
  QCheck.Test.make ~name:"loop aggregation = union of iterations" ~count:(Qcount.count 200)
    (QCheck.make
       ~print:(fun (k, (s, (n, st))) ->
         Printf.sprintf "k=%d s=%d n=%d st=%d" k s n st)
       QCheck.Gen.(pair (int_range 1 4)
                     (pair (int_range 0 5) (pair (int_range 1 4) (int_range 1 4)))))
    (fun (k, (s, (n, st))) ->
      let li =
        Lmad.make (P.add (P.mul (v "i") (c s)) (c 1)) [ Lmad.dim (c n) (c st) ]
      in
      match Lmad.expand_loop Pr.empty "i" ~count:(c k) li with
      | None -> s <> 0 (* only stride-0 may fail, and it should not *)
      | Some agg ->
          let module IS = Set.Make (Int) in
          let union =
            List.fold_left
              (fun acc i ->
                IS.union acc
                  (IS.of_list
                     (Lmad.eval_points
                        (function "i" -> i | _ -> 0)
                        li)))
              IS.empty
              (List.init k Fun.id)
          in
          IS.equal union (IS.of_list (Lmad.eval_points (fun _ -> 0) agg)))

let tests =
  [
    Alcotest.test_case "row/col major" `Quick test_row_col_major;
    Alcotest.test_case "apply" `Quick test_apply;
    Alcotest.test_case "slice column" `Quick test_slice_column;
    Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
    Alcotest.test_case "reverse involution" `Quick test_reverse_involution;
    Alcotest.test_case "eval points" `Quick test_eval_points;
    Alcotest.test_case "expand loop (sec II-B)" `Quick test_expand_loop;
    Alcotest.test_case "expand loop edge cases" `Quick test_expand_loop_datadep;
    Alcotest.test_case "Fig. 3 chain" `Quick test_fig3;
    Alcotest.test_case "anti-unify R/C" `Quick test_antiunify;
    Alcotest.test_case "anti-unify equal" `Quick test_antiunify_equal;
    Alcotest.test_case "anti-unify rank mismatch" `Quick
      test_antiunify_rank_mismatch;
    Alcotest.test_case "NW non-overlap (Fig. 9)" `Quick test_nw_nonoverlap;
    Alcotest.test_case "NW concrete enumeration" `Quick test_nw_concrete;
    Alcotest.test_case "simple disjointness" `Quick test_simple_disjoint;
    Alcotest.test_case "rows disjoint" `Quick test_rows_disjoint;
    QCheck_alcotest.to_alcotest prop_nonoverlap_sound;
    QCheck_alcotest.to_alcotest prop_slice_points;
    QCheck_alcotest.to_alcotest prop_expand_loop_sound;
  ]
