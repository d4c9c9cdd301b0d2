(* Tests for the symbolic algebra engine: polynomial normal forms,
   substitution, division, and the inequality prover. *)

module P = Symalg.Poly
module Pr = Symalg.Prover

let v = P.var
let c = P.const

let poly = Alcotest.testable P.pp P.equal

let check_poly = Alcotest.check poly

(* ---------------------------------------------------------------- *)
(* Polynomial arithmetic                                             *)
(* ---------------------------------------------------------------- *)

let test_normal_form () =
  check_poly "x + x = 2x" (P.scale 2 (v "x")) (P.add (v "x") (v "x"));
  check_poly "x - x = 0" P.zero (P.sub (v "x") (v "x"));
  check_poly "commutative mul" (P.mul (v "x") (v "y")) (P.mul (v "y") (v "x"));
  check_poly "distribution"
    (P.add (P.mul (v "x") (v "y")) (P.mul (v "x") (v "z")))
    (P.mul (v "x") (P.add (v "y") (v "z")));
  Alcotest.(check bool) "zero is const" true (P.is_const P.zero);
  Alcotest.(check (option int)) "const extraction" (Some 7) (P.to_const_opt (c 7))

let test_eval () =
  let p = P.add (P.mul (v "x") (v "x")) (P.scale 3 (v "y")) in
  let env = function "x" -> 5 | "y" -> 2 | _ -> assert false in
  Alcotest.(check int) "x^2 + 3y at (5,2)" 31 (P.eval env p)

let test_subst () =
  (* n := q*b + 1 in n*b - b  ==>  q*b^2 *)
  let nb_b = P.sub (P.mul (v "n") (v "b")) (v "b") in
  let res = P.subst "n" (P.add (P.mul (v "q") (v "b")) P.one) nb_b in
  check_poly "nb - b [n := qb+1]" (P.mul (v "q") (P.mul (v "b") (v "b"))) res

let test_subst_fixpoint () =
  let env =
    P.SM.add "a" (P.add (v "b") P.one) (P.SM.add "b" (P.var "c") P.SM.empty)
  in
  let res = P.subst_fixpoint env (v "a") in
  check_poly "a -> b+1 -> c+1" (P.add (v "c") P.one) res

let test_linear_in () =
  (* i*b + n + 1 is linear in i with coefficient b *)
  let p = P.add (P.mul (v "i") (v "b")) (P.add (v "n") P.one) in
  match P.linear_in "i" p with
  | Some (a, b) ->
      check_poly "coefficient" (v "b") a;
      check_poly "remainder" (P.add (v "n") P.one) b
  | None -> Alcotest.fail "linear_in failed"

let test_linear_in_nonlinear () =
  let p = P.mul (v "i") (v "i") in
  Alcotest.(check bool) "i^2 not linear" true (P.linear_in "i" p = None)

let test_div_rem () =
  (* (nb - b - n - 1) / (nb - b) = 1 rem (-n - 1) *)
  let nb_b = P.sub (P.mul (v "n") (v "b")) (v "b") in
  let d = P.sub nb_b (P.add (v "n") P.one) in
  let q, r = P.div_rem d nb_b in
  check_poly "quotient" P.one q;
  check_poly "remainder" (P.neg (P.add (v "n") P.one)) r

let test_div_rem_exact () =
  let p = P.mul (P.add (v "x") (c 2)) (v "y") in
  let q, r = P.div_rem p (v "y") in
  check_poly "quotient" (P.add (v "x") (c 2)) q;
  check_poly "no remainder" P.zero r

(* ---------------------------------------------------------------- *)
(* Prover                                                            *)
(* ---------------------------------------------------------------- *)

let nw_ctx () =
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "i" ~lo:(c 0) ~hi:(P.sub (v "q") P.one) () in
  Pr.add_eq ctx "n" (P.add (P.mul (v "q") (v "b")) P.one)

let test_prover_basic () =
  let ctx = Pr.add_range Pr.empty "x" ~lo:(c 0) () in
  Alcotest.(check bool) "x >= 0" true (Pr.prove_nonneg ctx (v "x"));
  Alcotest.(check bool) "x + 1 > 0" true (Pr.prove_pos ctx (P.add (v "x") P.one));
  Alcotest.(check bool) "not x > 0" false (Pr.prove_pos ctx (v "x"));
  Alcotest.(check bool) "not -x >= 0" false (Pr.prove_nonneg ctx (P.neg (v "x")))

let test_prover_products () =
  let ctx = Pr.add_range (Pr.add_range Pr.empty "a" ~lo:(c 1) ()) "b" ~lo:(c 3) () in
  Alcotest.(check bool) "ab >= 3" true
    (Pr.prove_ge ctx (P.mul (v "a") (v "b")) (c 3));
  Alcotest.(check bool) "ab - a >= 0" true
    (Pr.prove_nonneg ctx (P.sub (P.mul (v "a") (v "b")) (v "a")))

let test_prover_nw_facts () =
  let ctx = nw_ctx () in
  let n = v "n" and b = v "b" and q = v "q" in
  let nb_b = P.sub (P.mul n b) b in
  Alcotest.(check bool) "n > b" true (Pr.prove_gt ctx n b);
  Alcotest.(check bool) "n > 2b fails at q=2? no: qb+1 > 2b holds for q>=2" true
    (Pr.prove_gt ctx n (P.scale 2 b));
  Alcotest.(check bool) "nb-b > 2b" true (Pr.prove_gt ctx nb_b (P.scale 2 b));
  Alcotest.(check bool) "mixed-sign: 2b^2-2b-1 >= 0" true
    (Pr.prove_nonneg ctx
       (P.sub (P.scale 2 (P.mul b b)) (P.add (P.scale 2 b) P.one)));
  Alcotest.(check bool) "i <= q-1 usable: q - i >= 1" true
    (Pr.prove_ge ctx (P.sub q (v "i")) P.one);
  Alcotest.(check bool) "rewriting: nb - b = qb^2" true
    (Pr.prove_eq ctx nb_b (P.mul q (P.mul b b)))

let test_prover_soundness_negative () =
  let ctx = nw_ctx () in
  (* things that are FALSE must not be provable *)
  Alcotest.(check bool) "not b > n" false (Pr.prove_gt ctx (v "b") (v "n"));
  Alcotest.(check bool) "not i >= 1" false (Pr.prove_ge ctx (v "i") P.one);
  Alcotest.(check bool) "not n = b" false (Pr.prove_eq ctx (v "n") (v "b"))

let test_prover_symbolic_upper () =
  (* j in [0, m-1], m <= k  ==>  j < k *)
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "m" ~lo:(c 1) ~hi:(v "k") () in
  let ctx = Pr.add_range ctx "j" ~lo:(c 0) ~hi:(P.sub (v "m") P.one) () in
  let ctx = Pr.add_range ctx "k" ~lo:(c 1) () in
  Alcotest.(check bool) "j < k" true (Pr.prove_lt ctx (v "j") (v "k"))

(* The same bounds recorded in another order give a map of another tree
   shape (a, b, c: root a with a right spine; b, a, c: root b with two
   leaves).  The memo tables must still share the facts proved under
   either. *)
let test_prover_memo_sharing () =
  let bound ctx (x, lo) = Pr.add_range ctx x ~lo:(c lo) () in
  let in_order = List.fold_left bound Pr.empty in
  let ma = ("memo_a", 1) and mb = ("memo_b", 1) and mc = ("memo_c", 0) in
  let ctx1 = in_order [ ma; mb; mc ] and ctx2 = in_order [ mb; ma; mc ] in
  Alcotest.(check bool) "equal by bindings" true (Pr.equal ctx1 ctx2);
  Alcotest.(check int) "same hash" (Pr.hash ctx1) (Pr.hash ctx2);
  (* a*b + c - a >= 0: interval evaluation gives -inf as lower bound, so
     only the elimination search decides it *)
  let a = v "memo_a" and b = v "memo_b" in
  let goal = P.sub (P.add (P.mul a b) (v "memo_c")) a in
  let misses () = (Pr.stats ()).Pr.nonneg_misses in
  let m0 = misses () in
  Alcotest.(check bool) "proved under a, b, c" true (Pr.prove_nonneg ctx1 goal);
  let m1 = misses () in
  Alcotest.(check bool) "the search ran" true (m1 > m0);
  Alcotest.(check bool) "proved under b, a, c" true (Pr.prove_nonneg ctx2 goal);
  Alcotest.(check int) "no new elimination search" m1 (misses ())

let test_interval () =
  let ctx = Pr.add_range Pr.empty "x" ~lo:(c 2) ~hi:(c 5) () in
  let lo, hi = Pr.interval ctx (P.mul (v "x") (v "x")) in
  Alcotest.(check bool) "x^2 in [4,25]"
    true
    (lo = Pr.Ext.Fin 4 && hi = Pr.Ext.Fin 25)

(* Randomized soundness: anything the prover claims nonneg must evaluate
   nonneg on every sampled point of the context. *)
let test_prover_random_soundness () =
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    (* random polynomial over x,y with coeffs in [-4,4], deg <= 2 *)
    let rand_coeff () = Random.State.int rng 9 - 4 in
    let p =
      P.sum
        [
          P.scale (rand_coeff ()) (P.mul (v "x") (v "x"));
          P.scale (rand_coeff ()) (P.mul (v "x") (v "y"));
          P.scale (rand_coeff ()) (v "x");
          P.scale (rand_coeff ()) (v "y");
          P.const (rand_coeff ());
        ]
    in
    let xlo = Random.State.int rng 4 and ylo = Random.State.int rng 4 in
    let ctx =
      Pr.add_range (Pr.add_range Pr.empty "x" ~lo:(c xlo) ()) "y" ~lo:(c ylo) ()
    in
    if Pr.prove_nonneg ctx p then
      for x = xlo to xlo + 6 do
        for y = ylo to ylo + 6 do
          let value = P.eval (function "x" -> x | "y" -> y | _ -> 0) p in
          if value < 0 then
            Alcotest.failf "prover unsound: %a < 0 at x=%d y=%d" P.pp p x y
        done
      done
  done

(* qcheck: algebraic laws of the polynomial ring *)
let gen_poly =
  QCheck.Gen.(
    let mono =
      let* coeff = int_range (-5) 5 in
      let* vars = list_size (int_range 0 2) (oneofl [ "x"; "y"; "z" ]) in
      return (List.fold_left (fun p v -> P.mul p (P.var v)) (P.const coeff) vars)
    in
    let* ms = list_size (int_range 0 4) mono in
    return (P.sum ms))

let arb_poly = QCheck.make ~print:P.to_string gen_poly

let eval_at p = P.eval (function "x" -> 3 | "y" -> -2 | "z" -> 5 | _ -> 0) p

let prop_ring_laws =
  QCheck.Test.make ~name:"ring laws under evaluation" ~count:(Qcount.count 300)
    (QCheck.pair arb_poly arb_poly)
    (fun (p, q) ->
      eval_at (P.add p q) = eval_at p + eval_at q
      && eval_at (P.mul p q) = eval_at p * eval_at q
      && eval_at (P.sub p q) = eval_at p - eval_at q
      && P.equal (P.add p q) (P.add q p)
      && P.equal (P.mul p q) (P.mul q p))

let prop_div_rem =
  QCheck.Test.make ~name:"div_rem reconstructs" ~count:(Qcount.count 300)
    (QCheck.pair arb_poly arb_poly)
    (fun (p, d) ->
      QCheck.assume (not (P.is_zero d));
      let q, r = P.div_rem p d in
      P.equal p (P.add (P.mul q d) r))

let prop_subst_homomorphism =
  QCheck.Test.make ~name:"substitution commutes with evaluation" ~count:(Qcount.count 300)
    (QCheck.pair arb_poly arb_poly)
    (fun (p, by) ->
      let env = function "x" -> 3 | "y" -> -2 | "z" -> 5 | _ -> 0 in
      let env' v = if v = "x" then P.eval env by else env v in
      P.eval env (P.subst "x" by p) = P.eval env' p)

let prop_linear_in_reconstructs =
  QCheck.Test.make ~name:"linear_in reconstructs" ~count:(Qcount.count 300) arb_poly
    (fun p ->
      match P.linear_in "x" p with
      | None -> P.degree_in "x" p > 1
      | Some (a, b) ->
          P.equal p (P.add (P.mul a (P.var "x")) b)
          && (not (P.mem_var "x" a))
          && not (P.mem_var "x" b))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_ring_laws;
    QCheck_alcotest.to_alcotest prop_div_rem;
    QCheck_alcotest.to_alcotest prop_subst_homomorphism;
    QCheck_alcotest.to_alcotest prop_linear_in_reconstructs;
    Alcotest.test_case "normal form" `Quick test_normal_form;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "subst" `Quick test_subst;
    Alcotest.test_case "subst fixpoint" `Quick test_subst_fixpoint;
    Alcotest.test_case "linear_in" `Quick test_linear_in;
    Alcotest.test_case "linear_in nonlinear" `Quick test_linear_in_nonlinear;
    Alcotest.test_case "div_rem" `Quick test_div_rem;
    Alcotest.test_case "div_rem exact" `Quick test_div_rem_exact;
    Alcotest.test_case "prover basic" `Quick test_prover_basic;
    Alcotest.test_case "prover products" `Quick test_prover_products;
    Alcotest.test_case "prover NW facts" `Quick test_prover_nw_facts;
    Alcotest.test_case "prover negatives" `Quick test_prover_soundness_negative;
    Alcotest.test_case "prover symbolic upper" `Quick test_prover_symbolic_upper;
    Alcotest.test_case "prover memo shared across insertion orders" `Quick
      test_prover_memo_sharing;
    Alcotest.test_case "interval" `Quick test_interval;
    Alcotest.test_case "prover random soundness" `Quick
      test_prover_random_soundness;
  ]
