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

(* A false goal is refuted by a concrete witness at its one memo miss,
   and the refusal is memoized; a true goal is still searched and
   proved.  That search first substitutes i's lower bound, and the
   false subgoal it gives, -j >= 0, is refuted before and after i is
   rebased to zero: a witness only ever closes false goals. *)
let test_prover_refutation () =
  let i = v "rf_i" and j = v "rf_j" and n = v "rf_n" in
  let ctx = Pr.add_range Pr.empty "rf_j" ~lo:(c 0) ~hi:(P.sub i P.one) () in
  let ctx = Pr.add_range ctx "rf_i" ~lo:P.one ~hi:(P.sub n P.one) () in
  let counts () =
    let s = Pr.stats () in
    (s.Pr.nonneg_misses, s.Pr.refuted)
  in
  let m0, r0 = counts () in
  let goal = P.sub (P.sub i j) (c 2) in
  Alcotest.(check bool) "i - j - 2 >= 0 refused" false
    (Pr.prove_nonneg ctx goal);
  Alcotest.(check (pair int int)) "one miss, refuted" (m0 + 1, r0 + 1)
    (counts ());
  Alcotest.(check bool) "refused again" false (Pr.prove_nonneg ctx goal);
  Alcotest.(check (pair int int)) "no new miss" (m0 + 1, r0 + 1) (counts ());
  Alcotest.(check bool) "i - j - 1 >= 0 proved" true
    (Pr.prove_nonneg ctx (P.sub (P.sub i j) P.one));
  Alcotest.(check int) "only the false subgoals refuted" (r0 + 3)
    (snd (counts ()))

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

(* Triangular contexts: n >= cn, a <= i <= n - b, 0 <= j <= i - cj,
   optionally with an equality s := i + k*j whose variable is bounded
   too, s <= n + d (a bound [valuation] must check, not construct). *)
type tri = { cn : int; a : int; b : int; cj : int; s : (int * int) option }

let tri_ctx t =
  let ctx = Pr.add_range Pr.empty "n" ~lo:(c t.cn) () in
  let ctx = Pr.add_range ctx "i" ~lo:(c t.a) ~hi:(P.sub (v "n") (c t.b)) () in
  let ctx = Pr.add_range ctx "j" ~lo:P.zero ~hi:(P.sub (v "i") (c t.cj)) () in
  match t.s with
  | None -> ctx
  | Some (k, d) ->
      let ctx = Pr.add_eq ctx "s" (P.add (v "i") (P.scale k (v "j"))) in
      Pr.add_hi ctx "s" (P.add (v "n") (c d))

(* Does the point (i, j, n) satisfy the context [t] describes? *)
let tri_holds t i j n =
  n >= t.cn && t.a <= i && i <= n - t.b && 0 <= j && j <= i - t.cj
  && match t.s with None -> true | Some (k, d) -> i + (k * j) <= n + d

let gen_tri =
  QCheck.Gen.(
    let* cn = int_range 0 3 and* a = int_range 0 2 and* b = int_range 0 2 in
    let* cj = int_range 0 2 in
    let* s = opt (pair (int_range 0 2) (int_range (-1) 3)) in
    return { cn; a; b; cj; s })

(* A polynomial over i, j and n of degree <= 2: either with small,
   often zero, coefficients, or a nonnegative combination of the
   context's gaps (i - a, n - b - i, j, i - cj - j, n - cn) and their
   products, shifted by a small constant - goals on the edge of truth,
   where an unsound step shows. *)
let gen_tri_poly t =
  QCheck.Gen.(
    let coeffs lo hi xs =
      let coeff = frequency [ (3, return 0); (2, int_range lo hi) ] in
      flatten_l (List.map (fun _ -> coeff) xs)
    in
    let combine cs xs = P.sum (List.map2 P.scale cs xs) in
    let random =
      let monos =
        [ P.one; v "i"; v "j"; v "n" ]
        @ List.map
            (fun (x, y) -> P.mul (v x) (v y))
            [ ("i", "i"); ("i", "j"); ("i", "n"); ("j", "j"); ("j", "n");
              ("n", "n") ]
      in
      map (fun cs -> combine cs monos) (coeffs (-3) 3 monos)
    in
    let near_true =
      let gaps =
        [
          P.sub (v "i") (c t.a);
          P.sub (P.sub (v "n") (c t.b)) (v "i");
          v "j";
          P.sub (P.sub (v "i") (c t.cj)) (v "j");
          P.sub (v "n") (c t.cn);
        ]
      in
      let products =
        List.concat_map (fun g -> List.map (P.mul g) gaps) gaps
      in
      let* linear = coeffs 0 2 gaps and* square = coeffs 0 1 products in
      let* k = int_range (-2) 1 in
      return
        (P.sum [ combine linear gaps; combine square products; c k ])
    in
    frequency [ (1, random); (2, near_true) ])

let print_tri (t, p) =
  Fmt.str "@[<v>%a@,goal: %a >= 0@]" Pr.pp (tri_ctx t) P.pp p

let arb_tri_goal =
  QCheck.make ~print:print_tri
    QCheck.Gen.(gen_tri >>= fun t -> map (fun p -> (t, p)) (gen_tri_poly t))

(* Every assignment [valuation] returns for the seeds -3..10 satisfies
   each recorded bound and equality, evaluated here; without the
   equality, some seed gives one. *)
let prop_valuation_admissible =
  QCheck.Test.make ~name:"valuation stays inside triangular contexts"
    ~count:(Qcount.count 300) arb_tri_goal (fun (t, _) ->
      let ctx = tri_ctx t in
      let inside env =
        List.for_all
          (fun (x, lo, hi) ->
            let le a b = P.eval env a <= P.eval env b in
            Option.fold ~none:true ~some:(fun l -> le l (v x)) lo
            && Option.fold ~none:true ~some:(fun h -> le (v x) h) hi)
          (Pr.var_bounds ctx)
        && List.for_all
             (fun (x, e) -> env x = P.eval env e)
             (Pr.equalities ctx)
      in
      let seeds = List.init 14 (fun k -> k - 3) in
      let envs = List.filter_map (Pr.valuation ctx) seeds in
      List.for_all inside envs && (t.s <> None || envs <> []))

(* Every goal the prover accepts over a triangular context is
   nonnegative at every point of the box -2..8 that satisfies the
   context: soundness with symbolic bounds, where refutation and the
   elimination search both run on shifted contexts. *)
let prop_prover_sound_triangular =
  QCheck.Test.make ~name:"prover sound on triangular contexts"
    ~count:(Qcount.count 1000) arb_tri_goal (fun (t, p) ->
      (not (Pr.prove_nonneg (tri_ctx t) p))
      ||
      let box = List.init 11 (fun k -> k - 2) in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              List.for_all
                (fun n ->
                  (not (tri_holds t i j n))
                  ||
                  let env = function
                    | "i" -> i
                    | "j" -> j
                    | "n" -> n
                    | x -> Alcotest.failf "unexpected variable %s" x
                  in
                  P.eval env p >= 0
                  || QCheck.Test.fail_reportf "%a < 0 at i=%d j=%d n=%d" P.pp
                       p i j n)
                box)
            box)
        box)

(* Query history.  [hist_t1] and [hist_t2] differ in one bound (n >= 1
   against n >= 2).  The goal i*n - 2i >= 0 is refuted by a witness
   under the first and proved only by the elimination search under the
   second: interval evaluation leaves it unbounded below. *)
let hist_t1 = { cn = 1; a = 0; b = 0; cj = 0; s = None }
let hist_t2 = { hist_t1 with cn = 2 }
let hist_goal = P.sub (P.mul (v "i") (v "n")) (P.scale 2 (v "i"))

let test_prover_one_bound_apart () =
  Pr.with_cold_memo (fun () ->
      let refuted () = (Pr.stats ()).Pr.refuted in
      let r0 = refuted () in
      Alcotest.(check bool) "refused under n >= 1" false
        (Pr.prove_nonneg (tri_ctx hist_t1) hist_goal);
      Alcotest.(check int) "by a witness" (r0 + 1) (refuted ());
      Alcotest.(check bool) "intervals leave it open under n >= 2" true
        (fst (Pr.interval (tri_ctx hist_t2) hist_goal) = Pr.Ext.NegInf);
      Alcotest.(check bool) "the search proves it under n >= 2" true
        (Pr.prove_nonneg (tri_ctx hist_t2) hist_goal))

(* A triangular context, a neighbour one bound apart, and goals asked
   under both, shuffled together with the two queries above. *)
let gen_history =
  QCheck.Gen.(
    let* t = gen_tri in
    let* t' =
      oneofl
        [
          { t with cn = t.cn + 1 };
          { t with a = t.a + 1 };
          { t with b = t.b + 1 };
          { t with cj = t.cj + 1 };
        ]
    in
    let* goals = list_size (int_range 1 5) (gen_tri_poly t) in
    let both = List.concat_map (fun p -> [ (t, p); (t', p) ]) goals in
    let* again = list_size (int_range 0 6) (oneofl both) in
    shuffle_l ([ (hist_t1, hist_goal); (hist_t2, hist_goal) ] @ both @ again))

(* Each query's verdict, asked after all the queries before it, equals
   its verdict asked alone, under [with_cold_memo]: neither the memo
   tables nor the witnesses kept for recent contexts carry one
   context's facts into another's. *)
let prop_prover_history_free =
  QCheck.Test.make ~name:"prover verdicts do not depend on query history"
    ~count:(Qcount.count 100)
    (QCheck.make
       ~print:(fun qs -> String.concat "\n" (List.map print_tri qs))
       gen_history)
    (fun qs ->
      let ask (t, p) = Pr.prove_nonneg (tri_ctx t) p in
      let warm = List.map ask qs in
      warm = List.map (fun q -> Pr.with_cold_memo (fun () -> ask q)) qs)

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
    QCheck_alcotest.to_alcotest prop_valuation_admissible;
    QCheck_alcotest.to_alcotest prop_prover_sound_triangular;
    QCheck_alcotest.to_alcotest prop_prover_history_free;
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
    Alcotest.test_case "prover refutes false goals by a witness" `Quick
      test_prover_refutation;
    Alcotest.test_case "prover: one goal, two contexts one bound apart"
      `Quick test_prover_one_bound_apart;
    Alcotest.test_case "interval" `Quick test_interval;
    Alcotest.test_case "prover random soundness" `Quick
      test_prover_random_soundness;
  ]
