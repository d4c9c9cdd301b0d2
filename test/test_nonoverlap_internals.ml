(* White-box tests of the non-overlap machinery: the sum-of-intervals
   conversion, offset distribution (footnote 27), the per-set dimension
   condition, the splitting heuristic (Fig. 8), the residue rule, and
   the prover's budgets. *)

module P = Symalg.Poly
module Pr = Symalg.Prover
open Lmads

let v = P.var
let c = P.const

let nw_ctx () =
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "i" ~lo:(c 0) ~hi:(P.sub (v "q") P.one) () in
  Pr.add_eq ctx "n" (P.add (P.mul (v "q") (v "b")) P.one)

(* ---------------------------------------------------------------- *)
(* Stride bases                                                      *)
(* ---------------------------------------------------------------- *)

let test_merge_bases () =
  let ctx = nw_ctx () in
  (* n*b - b and q*b^2 are the same stride under n = q*b + 1 *)
  let nb_b = P.sub (P.mul (v "n") (v "b")) (v "b") in
  let qb2 = P.mul (v "q") (P.mul (v "b") (v "b")) in
  match Nonoverlap.merge_bases ctx [ nb_b; v "n" ] [ qb2; P.one ] with
  | Some basis ->
      Alcotest.(check int) "three distinct strides" 3 (List.length basis)
  | None -> Alcotest.fail "basis merge failed"

let test_sort_strides_incomparable () =
  (* two free variables cannot be ordered *)
  let ctx = Pr.empty in
  Alcotest.(check bool) "incomparable" true
    (Nonoverlap.sort_strides ctx [ v "x"; v "y" ] = None)

(* ---------------------------------------------------------------- *)
(* Distribution                                                      *)
(* ---------------------------------------------------------------- *)

let test_distribute_nw_offsets () =
  (* Fig. 9: d = (W offset) - (Rvert offset) = n + 1 distributes as
     1*n + 1*1, shifting W's inner intervals to [1..b] *)
  let ctx = nw_ctx () in
  let nb_b = P.sub (P.mul (v "n") (v "b")) (v "b") in
  let mk hi stride = { Nonoverlap.lo = P.zero; hi; stride } in
  let i1 =
    [ mk (v "i") nb_b; mk (P.sub (v "b") P.one) (v "n"); mk (P.sub (v "b") P.one) P.one ]
  in
  let i2 = [ mk (v "i") nb_b; mk (v "b") (v "n"); mk P.zero P.one ] in
  match
    Nonoverlap.distribute ctx (Pr.rewrite ctx (P.add (v "n") P.one)) i1 i2
  with
  | Nonoverlap.Distributed (i1', _) ->
      let ivs = Array.of_list i1' in
      Alcotest.(check bool) "n-interval shifted to [1..b]" true
        (P.equal ivs.(1).Nonoverlap.lo P.one
        && P.equal ivs.(1).Nonoverlap.hi (v "b"));
      Alcotest.(check bool) "1-interval shifted to [1..b]" true
        (P.equal ivs.(2).Nonoverlap.lo P.one)
  | _ -> Alcotest.fail "distribution failed"

let test_residue_rule () =
  (* offsets differing by 1 with all strides even: disjoint by residue *)
  let ctx = Pr.add_range Pr.empty "n" ~lo:(c 1) () in
  let evens = Lmad.make P.zero [ Lmad.dim (v "n") (c 4) ] in
  let shifted = Lmad.make (c 2) [ Lmad.dim (v "n") (c 4) ] in
  let odd = Lmad.make P.one [ Lmad.dim (v "n") (c 4) ] in
  Alcotest.(check bool) "stride-4 sets offset by 1: disjoint" true
    (Nonoverlap.disjoint ctx evens odd);
  Alcotest.(check bool) "stride-4 sets offset by 2: disjoint" true
    (Nonoverlap.disjoint ctx evens shifted);
  (* but offset by 4 overlaps (same residue class) *)
  let four = Lmad.make (c 4) [ Lmad.dim (v "n") (c 4) ] in
  Alcotest.(check bool) "same residue not claimed disjoint" false
    (Nonoverlap.disjoint ctx evens four)

(* ---------------------------------------------------------------- *)
(* Dimension conditions and splitting                                *)
(* ---------------------------------------------------------------- *)

let test_dims_condition () =
  let ctx = nw_ctx () in
  let mk lo hi stride = { Nonoverlap.lo; hi; stride } in
  (* descending stride order: [(nb-b), (n), (1)] with u = b-1 on the
     inner dims: non-overlapping under n = qb+1 *)
  let nb_b = P.sub (P.mul (v "n") (v "b")) (v "b") in
  let good =
    [
      mk P.zero (v "i") nb_b;
      mk P.zero (P.sub (v "b") P.one) (v "n");
      mk P.zero (P.sub (v "b") P.one) P.one;
    ]
  in
  Alcotest.(check bool) "non-overlapping dims" true
    (Nonoverlap.dims_nonoverlapping ctx good);
  (* widen the middle interval to [0..b]: the nb-b stride now overflows *)
  let bad =
    [
      mk P.zero (v "i") nb_b;
      mk P.zero (v "b") (v "n");
      mk P.zero (P.sub (v "b") P.one) P.one;
    ]
  in
  Alcotest.(check bool) "overflow detected" false
    (Nonoverlap.dims_nonoverlapping ctx bad);
  Alcotest.(check (option int)) "at the outermost dim" (Some 2)
    (Nonoverlap.first_overlapping_dim ctx bad)

let test_split_overlapping () =
  let ctx = nw_ctx () in
  let mk lo hi stride = { Nonoverlap.lo; hi; stride } in
  let nb_b = P.sub (P.mul (v "n") (v "b")) (v "b") in
  let bad =
    [
      mk P.zero (v "i") nb_b;
      mk P.zero (v "b") (v "n");
      mk P.zero P.zero P.one;
    ]
  in
  match Nonoverlap.split_overlapping ctx bad with
  | Some [ a; b ] ->
      (* part A: the offending interval loses its last point *)
      let a2 = List.nth a 1 in
      Alcotest.(check bool) "A keeps [0..b-1]" true
        (P.equal a2.Nonoverlap.hi (P.sub (v "b") P.one));
      (* part B: fixed at the last point, contribution redistributed *)
      let b1 = List.nth b 0 and b2 = List.nth b 1 in
      Alcotest.(check bool) "B fixes the dim" true
        (P.is_zero b2.Nonoverlap.hi);
      Alcotest.(check bool) "B shifts the outer dim" true
        (P.equal b1.Nonoverlap.lo P.one)
  | _ -> Alcotest.fail "split failed"

let test_split_depth_zero () =
  (* Fig. 9 needs splitting: with depth 0 the proof must fail (but stay
     sound), with the default depth it succeeds *)
  let ctx = nw_ctx () in
  let n = v "n" and b = v "b" and i = v "i" in
  let nb_b = P.sub (P.mul n b) b in
  let w =
    Lmad.make
      (P.sum [ P.mul i b; n; P.one ])
      [ Lmad.dim (P.add i P.one) nb_b; Lmad.dim b n; Lmad.dim b P.one ]
  in
  let rv =
    Lmad.make (P.mul i b)
      [ Lmad.dim (P.add i P.one) nb_b; Lmad.dim (P.add b P.one) n ]
  in
  Alcotest.(check bool) "depth 0 fails" false
    (Nonoverlap.disjoint ~depth:0 ctx w rv);
  Alcotest.(check bool) "default depth succeeds" true
    (Nonoverlap.disjoint ctx w rv)

(* ---------------------------------------------------------------- *)
(* Prover budgets                                                    *)
(* ---------------------------------------------------------------- *)

let test_budget_soundness () =
  (* The Fig. 9 pair needs the prover.  No clock bounds a proof; only
     an explicit step budget does, and a cut budget gives up (false),
     never claiming disjointness it cannot prove. *)
  let ctx = nw_ctx () in
  let n = v "n" and b = v "b" and i = v "i" in
  let nb_b = P.sub (P.mul n b) b in
  let w =
    Lmad.make
      (P.sum [ P.mul i b; n; P.one ])
      [ Lmad.dim (P.add i P.one) nb_b; Lmad.dim b n; Lmad.dim b P.one ]
  in
  let rv =
    Lmad.make (P.mul i b)
      [ Lmad.dim (P.add i P.one) nb_b; Lmad.dim (P.add b P.one) n ]
  in
  let under budget f =
    let saved = Pr.get_budget () in
    Pr.set_budget budget;
    Fun.protect ~finally:(fun () -> Pr.set_budget saved) f
  in
  under { Pr.unlimited with b_steps = 0 } (fun () ->
      Alcotest.(check bool) "b_steps = 0: not proved" false
        (Nonoverlap.disjoint ctx w rv));
  under Pr.unlimited (fun () ->
      Alcotest.(check bool) "unlimited: proved" true
        (Nonoverlap.disjoint ctx w rv))

let tests =
  [
    Alcotest.test_case "merge bases under rewrites" `Quick test_merge_bases;
    Alcotest.test_case "incomparable strides" `Quick
      test_sort_strides_incomparable;
    Alcotest.test_case "offset distribution (Fig. 9)" `Quick
      test_distribute_nw_offsets;
    Alcotest.test_case "residue rule" `Quick test_residue_rule;
    Alcotest.test_case "dimension conditions" `Quick test_dims_condition;
    Alcotest.test_case "splitting heuristic (Fig. 8)" `Quick
      test_split_overlapping;
    Alcotest.test_case "Fig. 9 needs splitting" `Quick test_split_depth_zero;
    Alcotest.test_case "proof budget" `Quick test_budget_soundness;
  ]
