(* White-box tests of the non-overlap machinery: the sum-of-intervals
   conversion, offset distribution (footnote 27), the per-set dimension
   condition, the splitting heuristic (Fig. 8), the residue rule, the
   prover's budgets, and the memo of non-overlap verdicts. *)

module P = Symalg.Poly
module Pr = Symalg.Prover
open Lmads

let v = P.var
let c = P.const

(* Fig. 9's context, and its write W with the vertical read Rvert:
   disjoint, but only once a dimension is split. *)
let nw_ctx () = (Benchsuite.Nw.fig9 ()).ctx

let fig9 () =
  let f = Benchsuite.Nw.fig9 () in
  (f.w, f.rvert)

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
  let ctx = nw_ctx () and w, rv = fig9 () in
  Alcotest.(check bool) "depth 0 fails" false
    (Nonoverlap.disjoint ~depth:0 ctx w rv);
  Alcotest.(check bool) "default depth succeeds" true
    (Nonoverlap.disjoint ctx w rv)

(* ---------------------------------------------------------------- *)
(* Prover budgets                                                    *)
(* ---------------------------------------------------------------- *)

let under budget f =
  let saved = Pr.get_budget () in
  Pr.set_budget budget;
  Fun.protect ~finally:(fun () -> Pr.set_budget saved) f

let test_budget_soundness () =
  (* The Fig. 9 pair needs the prover.  No clock bounds a proof; only
     an explicit step budget does, and a cut budget gives up (false),
     never claiming disjointness it cannot prove. *)
  let ctx = nw_ctx () and w, rv = fig9 () in
  under { Pr.unlimited with b_steps = 0 } (fun () ->
      Alcotest.(check bool) "b_steps = 0: not proved" false
        (Nonoverlap.disjoint ctx w rv));
  under Pr.unlimited (fun () ->
      Alcotest.(check bool) "unlimited: proved" true
        (Nonoverlap.disjoint ctx w rv))

(* The reverse order: the memo holds the pair's [true] before each
   budget asks, and neither budget may read it.  Under [b_steps = 0]
   every prover query is refused, so the answer is [false]; under
   [b_memo = 0] the answer is the search's own, with no verdict hit and
   nothing stored. *)
let test_budget_bypasses_verdicts () =
  let ctx = nw_ctx () and w, rv = fig9 () in
  let verdicts () =
    let s = Pr.stats () in
    (s.Pr.verdict_hits, s.Pr.verdict_misses)
  in
  Alcotest.(check bool) "unlimited: proved" true (Nonoverlap.disjoint ctx w rv);
  let before = verdicts () in
  under { Pr.unlimited with b_steps = 0 } (fun () ->
      Alcotest.(check bool) "b_steps = 0: not proved" false
        (Nonoverlap.disjoint ctx w rv));
  under { Pr.unlimited with b_memo = 0 } (fun () ->
      Alcotest.(check bool) "b_memo = 0: proved by the search" true
        (Nonoverlap.disjoint ctx w rv));
  Alcotest.(check (pair int int)) "no verdict hit or miss under a budget"
    before (verdicts ())

(* ---------------------------------------------------------------- *)
(* The verdict memo                                                  *)
(* ---------------------------------------------------------------- *)

(* A question and the context it is asked under, printed for qcheck. *)
type question = { ctx : Pr.t; depth : int; l1 : Lmad.t; l2 : Lmad.t }

let print_question q =
  Fmt.str "@[<v>%a@,depth %d: %s # %s@]" Pr.pp q.ctx q.depth
    (Lmad.to_string q.l1) (Lmad.to_string q.l2)

(* NW's anti-diagonal pieces (Fig. 9): an offset, then an outer,
   middle and inner dimension, each possibly absent.  W and Rvert are
   among them. *)
let gen_nw_lmad =
  QCheck.Gen.(
    let n = v "n" and b = v "b" and i = v "i" in
    let nb_b = P.sub (P.mul n b) b in
    let* off =
      oneofl
        [
          P.mul i b;
          P.sum [ P.mul i b; n; P.one ];
          P.add (P.mul i b) P.one;
          P.add (P.mul i b) n;
          P.add n P.one;
        ]
    in
    let* outer = oneofl [ []; [ Lmad.dim (P.add i P.one) nb_b ] ] in
    let* middle =
      oneofl [ []; [ Lmad.dim b n ]; [ Lmad.dim (P.add b P.one) n ] ]
    in
    let* inner =
      oneofl [ []; [ Lmad.dim b P.one ]; [ Lmad.dim (P.add b P.one) P.one ] ]
    in
    return (Lmad.make off (outer @ middle @ inner)))

(* Points, rows, columns and row prefixes of an n x n matrix indexed by
   the triangular context's i and j. *)
let gen_tri_lmad =
  QCheck.Gen.(
    let i = v "i" and j = v "j" and n = v "n" in
    let* off =
      oneofl [ P.zero; i; j; n; P.mul i n; P.add (P.mul i n) j; P.mul j n ]
    in
    let* dims =
      oneofl
        [
          [];
          [ Lmad.dim n P.one ];
          [ Lmad.dim (P.add j P.one) P.one ];
          [ Lmad.dim n n ];
        ]
    in
    return (Lmad.make off dims))

(* Two contexts one bound apart, an anchor pair and the LMADs to draw
   more pairs from.  A triangular context's anchor is the two points
   the moved bound separates, so its verdict differs between the two
   contexts whenever that bound is the binding one; NW's is Fig. 9's
   pair, whose verdict differs between split depth 0 and the others. *)
let gen_contexts =
  QCheck.Gen.(
    let tri =
      let* t = Test_symalg.gen_tri in
      let pt x = Lmad.point x in
      let* t', anchor =
        oneofl
          [
            ({ t with Test_symalg.cn = t.Test_symalg.cn + 1 },
             (pt P.zero, pt (v "n")));
            ({ t with a = t.a + 1 }, (pt P.zero, pt (v "i")));
            ({ t with b = t.b + 1 }, (pt (v "i"), pt (v "n")));
            ({ t with cj = t.cj + 1 }, (pt (v "j"), pt (v "i")));
          ]
      in
      return
        ( Test_symalg.tri_ctx t,
          Test_symalg.tri_ctx t',
          anchor,
          gen_tri_lmad )
    in
    let nw =
      let ctx = nw_ctx () in
      return
        (ctx, Pr.add_range ctx "b" ~lo:(c 3) (), fig9 (), gen_nw_lmad)
    in
    oneof [ tri; nw ])

(* Each pair (the anchor and up to two more) under both contexts, each
   at two distinct split depths, shuffled. *)
let gen_questions =
  QCheck.Gen.(
    let* ctx, ctx', anchor, gen_lmad = gen_contexts in
    let* more = list_size (int_range 0 2) (pair gen_lmad gen_lmad) in
    let* asks =
      flatten_l
        (List.concat_map
           (fun (l1, l2) ->
             List.map
               (fun ctx ->
                 map
                   (fun (d, k) ->
                     [
                       { ctx; depth = d; l1; l2 };
                       { ctx; depth = (d + k) mod 4; l1; l2 };
                     ])
                   (pair (int_range 0 3) (int_range 1 3)))
               [ ctx; ctx' ])
           (anchor :: more))
    in
    shuffle_l (List.concat asks))

(* A verdict does not depend on what was asked before: each question
   asked after all the others, asked again, and asked alone under
   [with_cold_memo] gets one verdict, and the second round decides
   nothing afresh. *)
let prop_verdicts_history_free =
  QCheck.Test.make ~name:"non-overlap verdicts do not depend on query history"
    ~count:(Qcount.count 60)
    (QCheck.make
       ~print:(fun qs -> String.concat "\n" (List.map print_question qs))
       gen_questions)
    (fun qs ->
      let ask q = Nonoverlap.disjoint ~depth:q.depth q.ctx q.l1 q.l2 in
      let misses () = (Pr.stats ()).Pr.verdict_misses in
      let warm = List.map ask qs in
      let m = misses () in
      let again = List.map ask qs in
      let repeat_misses = misses () - m in
      let cold = List.map (fun q -> Pr.with_cold_memo (fun () -> ask q)) qs in
      ((warm = again && warm = cold)
      || QCheck.Test.fail_reportf "warm %a@.again %a@.cold %a"
           Fmt.(Dump.list bool) warm
           Fmt.(Dump.list bool) again
           Fmt.(Dump.list bool) cold)
      && (repeat_misses = 0
         || QCheck.Test.fail_reportf "the repeat decided %d afresh"
              repeat_misses))

(* A cold compile's work does not depend on what the process compiled
   before: the same certified NW compile, cold, reports the same
   verdict and goal misses before and after a warm one fills the
   tables. *)
let test_cold_memo_empties_verdicts () =
  let compile () =
    ignore
      (Core.Pipeline.compile ~certify:true ~fail_safe:true Benchsuite.Nw.prog)
  in
  let cold () =
    Pr.with_cold_memo (fun () ->
        let s0 = Pr.stats () in
        compile ();
        let s1 = Pr.stats () in
        ( s1.Pr.verdict_misses - s0.Pr.verdict_misses,
          s1.Pr.nonneg_misses - s0.Pr.nonneg_misses ))
  in
  let before = cold () in
  compile ();
  Alcotest.(check (pair int int)) "same work after a warm compile" before
    (cold ());
  Alcotest.(check bool) "the compile decides non-overlap questions" true
    (fst before > 0)

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
    Alcotest.test_case "a budget is never answered from the memo" `Quick
      test_budget_bypasses_verdicts;
    QCheck_alcotest.to_alcotest prop_verdicts_history_free;
    Alcotest.test_case "with_cold_memo empties the verdict memo" `Quick
      test_cold_memo_empties_verdicts;
  ]
