(* A sufficient-condition prover for polynomial (in)equalities over
   integer variables with known bounds.

   Section V-D of the paper reports that the inequalities generated by the
   non-overlap theorem were discharged with an external SMT solver, to be
   replaced by "a simpler symbolic algebra engine inside the compiler".
   This module is that engine.  It is deliberately incomplete but sound:
   [prove_*] returning [true] guarantees the fact holds for every
   assignment satisfying the context; [false] means "could not prove".

   The proof strategy is:
   1. rewrite with the recorded equalities (e.g. n := q*b + 1 for NW);
   2. interval-evaluate the polynomial using variable ranges;
   3. refute: evaluate the polynomial at a few small assignments that
      satisfy the context ([valuation], or where its clamping leaves the
      context, the least solution of the lower bounds); a negative value
      is a concrete counterexample, so the goal is false and no search
      is spent on it.
      The assignments are built once per context and kept for the last
      few contexts, so the goals that follow in the same context
      evaluate them instead of rebuilding them;
   4. otherwise eliminate a variable by substituting its lower (resp.
      upper) bound when the polynomial is provably monotone increasing
      (resp. decreasing) in that variable - a Fourier-style step - and
      recurse on the smaller polynomial.  Variables are tried innermost
      first, as Fourier-Motzkin projection eliminates them: a variable
      whose bounds mention another is tried before it. *)

module SM = Poly.SM

(* ---------------------------------------------------------------- *)
(* Extended integers for interval evaluation                         *)
(* ---------------------------------------------------------------- *)

module Ext = struct
  type t = NegInf | Fin of int | PosInf

  let add a b =
    match (a, b) with
    | Fin x, Fin y -> Fin (x + y)
    | NegInf, PosInf | PosInf, NegInf ->
        invalid_arg "Ext.add: undefined inf + -inf"
    | NegInf, _ | _, NegInf -> NegInf
    | PosInf, _ | _, PosInf -> PosInf

  (* Multiplication treating infinities as limits of finite values, so
     0 * inf = 0: our intervals always bound finite integers. *)
  let mul a b =
    match (a, b) with
    | Fin x, Fin y -> Fin (x * y)
    | Fin 0, _ | _, Fin 0 -> Fin 0
    | Fin x, PosInf | PosInf, Fin x -> if x > 0 then PosInf else NegInf
    | Fin x, NegInf | NegInf, Fin x -> if x > 0 then NegInf else PosInf
    | PosInf, PosInf | NegInf, NegInf -> PosInf
    | PosInf, NegInf | NegInf, PosInf -> NegInf

  let min a b =
    match (a, b) with
    | NegInf, _ | _, NegInf -> NegInf
    | PosInf, x | x, PosInf -> x
    | Fin x, Fin y -> Fin (Stdlib.min x y)

  let max a b =
    match (a, b) with
    | PosInf, _ | _, PosInf -> PosInf
    | NegInf, x | x, NegInf -> x
    | Fin x, Fin y -> Fin (Stdlib.max x y)

  let ge0 = function Fin x -> x >= 0 | PosInf -> true | NegInf -> false

  let pp ppf = function
    | NegInf -> Fmt.string ppf "-inf"
    | PosInf -> Fmt.string ppf "+inf"
    | Fin x -> Fmt.int ppf x
end

type interval = Ext.t * Ext.t

let ival_add (l1, h1) (l2, h2) = (Ext.add l1 l2, Ext.add h1 h2)

let ival_mul (l1, h1) (l2, h2) =
  let products = [ Ext.mul l1 l2; Ext.mul l1 h2; Ext.mul h1 l2; Ext.mul h1 h2 ] in
  ( List.fold_left Ext.min Ext.PosInf products,
    List.fold_left Ext.max Ext.NegInf products )

let ival_pow iv n =
  let rec go acc n = if n = 0 then acc else go (ival_mul acc iv) (n - 1) in
  go (Ext.Fin 1, Ext.Fin 1) n

(* ---------------------------------------------------------------- *)
(* Contexts                                                          *)
(* ---------------------------------------------------------------- *)

type bound = { lo : Poly.t option; hi : Poly.t option }

type t = {
  bounds : bound SM.t; (* per-variable symbolic bounds (inclusive) *)
  eqs : Poly.t SM.t; (* rewrite rules v := p, applied to a fixpoint *)
  hash : int; (* of the bindings, cached by [make] *)
}

(* Every context is built here, so its hash is computed once.  The hash
   and [equal] read the maps only through their bindings: [shift_ctx]'s
   remove-then-add gives maps of other tree shapes that must still meet
   in the memo tables. *)
let make bounds eqs =
  let mix h x = (h * 65599) + x in
  let opt = function None -> 0 | Some p -> 1 + Poly.hash p in
  let h =
    SM.fold (fun v p h -> mix (mix h (Hashtbl.hash v)) (Poly.hash p)) eqs 0
  in
  let h =
    SM.fold
      (fun v b h -> mix (mix (mix h (Hashtbl.hash v)) (opt b.lo)) (opt b.hi))
      bounds h
  in
  { bounds; eqs; hash = Hashtbl.hash h }

let hash ctx = ctx.hash

let equal a b =
  let poly x y = Poly.compare x y = 0 in
  let bound x y = Option.equal poly x.lo y.lo && Option.equal poly x.hi y.hi in
  a == b
  || a.hash = b.hash
     && SM.equal poly a.eqs b.eqs
     && SM.equal bound a.bounds b.bounds

let empty = make SM.empty SM.empty

let equalities ctx = SM.bindings ctx.eqs

let var_bounds ctx =
  SM.bindings ctx.bounds |> List.map (fun (v, b) -> (v, b.lo, b.hi))

let rewrite ctx p =
  if SM.is_empty ctx.eqs then p else Poly.subst_fixpoint ctx.eqs p

let add_eq ctx v p =
  let p = rewrite ctx p in
  if Poly.mem_var v p then
    invalid_arg ("Prover.add_eq: rhs mentions " ^ v ^ " after rewriting");
  (* Rewrite existing bounds and equalities with the new rule so lookups
     stay closed under the rule set. *)
  let sub q = Poly.subst v p q in
  make
    (SM.map
       (fun b -> { lo = Option.map sub b.lo; hi = Option.map sub b.hi })
       ctx.bounds)
    (SM.add v p (SM.map sub ctx.eqs))

let add_range ctx v ?lo ?hi () =
  let lo = Option.map (rewrite ctx) lo and hi = Option.map (rewrite ctx) hi in
  let prev =
    Option.value (SM.find_opt v ctx.bounds) ~default:{ lo = None; hi = None }
  in
  let merged =
    {
      lo = (match lo with Some _ -> lo | None -> prev.lo);
      hi = (match hi with Some _ -> hi | None -> prev.hi);
    }
  in
  make (SM.add v merged ctx.bounds) ctx.eqs

let add_lo ctx v lo = add_range ctx v ~lo ()
let add_hi ctx v hi = add_range ctx v ~hi ()

let lookup_bound ctx v =
  Option.value (SM.find_opt v ctx.bounds) ~default:{ lo = None; hi = None }

(* ---------------------------------------------------------------- *)
(* Interval evaluation                                               *)
(* ---------------------------------------------------------------- *)

(* Interval of a variable, chasing symbolic bounds up to [depth] with a
   visited set guarding against cycles. *)
let rec var_interval ctx depth visited v : interval =
  if depth = 0 || List.mem v visited then (Ext.NegInf, Ext.PosInf)
  else
    let b = lookup_bound ctx v in
    let lo =
      match b.lo with
      | None -> Ext.NegInf
      | Some p -> fst (poly_interval ctx (depth - 1) (v :: visited) p)
    in
    let hi =
      match b.hi with
      | None -> Ext.PosInf
      | Some p -> snd (poly_interval ctx (depth - 1) (v :: visited) p)
    in
    (lo, hi)

and poly_interval ctx depth visited p : interval =
  List.fold_left
    (fun acc (m : Poly.mono) ->
      let mi =
        List.fold_left
          (fun acc (v, e) ->
            ival_mul acc (ival_pow (var_interval ctx depth visited v) e))
          (Ext.Fin m.Poly.coeff, Ext.Fin m.Poly.coeff)
          m.Poly.pows
      in
      ival_add acc mi)
    (Ext.Fin 0, Ext.Fin 0)
    (Poly.monos p)

let interval ctx p = poly_interval ctx 4 [] (rewrite ctx p)

(* ---------------------------------------------------------------- *)
(* Concrete assignments                                              *)
(* ---------------------------------------------------------------- *)

(* Does [env] satisfy every recorded bound and equality? *)
let admits ctx env =
  let within v b =
    let x = env v in
    Option.fold ~none:true ~some:(fun l -> Poly.eval env l <= x) b.lo
    && Option.fold ~none:true ~some:(fun h -> x <= Poly.eval env h) b.hi
  in
  SM.for_all within ctx.bounds
  && SM.for_all (fun v p -> env v = Poly.eval env p) ctx.eqs

(* A variable with a recorded equality takes its right-hand side's
   value, a ranged variable the seed clamped into its evaluated bounds,
   any other variable the seed itself.  A cycle of symbolic bounds is
   broken by a provisional seed value and a range may be empty, so the
   assignment is checked against every recorded bound and equality
   before it is returned.  The check visits the bounds first, in
   variable order, which decides the variable of a cycle that takes
   the provisional value: starting from an equality instead (LUD's
   n := b*q) clamps q onto its lower bound bi + k + 3 through the
   bounds of bi and k, which refer back to q, and no seed passes. *)
let assignment ctx seed : int SM.t option =
  let memo = Hashtbl.create 16 in
  let rec env v =
    match Hashtbl.find_opt memo v with
    | Some x -> x
    | None ->
        Hashtbl.replace memo v seed (* provisional: breaks cycles *);
        let x =
          match SM.find_opt v ctx.eqs with
          | Some rhs -> Poly.eval env rhs
          | None -> (
              let b = lookup_bound ctx v in
              let lo = Option.map (Poly.eval env) b.lo in
              let hi = Option.map (Poly.eval env) b.hi in
              let x = match lo with Some l -> max l seed | None -> seed in
              match hi with Some h -> min h x | None -> x)
        in
        Hashtbl.replace memo v x;
        x
  in
  (* On success the check has evaluated every variable the context
     mentions, so [memo] holds the whole assignment. *)
  if admits ctx env then Some (Hashtbl.fold SM.add memo SM.empty) else None

(* An assignment as an environment: a variable the context does not
   mention takes the seed. *)
let env_of seed m v = Option.value (SM.find_opt v m) ~default:seed

let valuation ctx seed = Option.map (env_of seed) (assignment ctx seed)

(* The least solution of the lower bounds above the seed, for the
   contexts whose bounds [assignment] cannot close: saturation makes
   NW memlint's race context cyclic (q >= k + s + 3 with s <= q - k - 3),
   where every seed clamps s below its lower bound.  Each ranged
   variable starts at the seed and is raised to its lower bound,
   evaluated at the others, until a fixpoint; the bounds mention no
   variable with an equality, which takes its right-hand side's value
   last.  The point is checked like [assignment]'s. *)
let least ctx seed : int SM.t option =
  let ranged = SM.filter (fun v _ -> not (SM.mem v ctx.eqs)) ctx.bounds in
  let raise_round m =
    SM.fold
      (fun v b m ->
        match b.lo with
        | Some l -> SM.add v (max (SM.find v m) (Poly.eval (env_of seed m) l)) m
        | None -> m)
      ranged m
  in
  let rec fix rounds m =
    let m' = raise_round m in
    if SM.equal Int.equal m m' then Some m
    else if rounds = 0 then None
    else fix (rounds - 1) m'
  in
  Option.bind
    (fix (SM.cardinal ranged) (SM.map (fun _ -> seed) ranged))
    (fun m ->
      let eq v p = SM.add v (Poly.eval (env_of seed m) p) in
      let m = SM.fold eq ctx.eqs m in
      if admits ctx (env_of seed m) then Some m else None)

(* Seeds of the assignments that try to refute a goal before it is
   searched: small, so that [Poly.eval] stays far from overflow.  On the
   benchmark corpus the larger seeds 8, 13 and 1000 would be the first
   to refute no goal of a certified compile or a chaos campaign, and 1%
   of the goals memlint refutes (saving 2% of its misses). *)
let witness_seeds = [ 0; 1; 2; 3; 5 ]

(* The ranks of the elimination order: a variable's height in the graph
   where each variable points to the variables its bounds mention, so a
   loop index ranks above the variables of its range, and those above
   the variables of theirs.  Saturation can close a cycle of bounds (NW
   memlint's race context, above); the walk cuts it where it meets a
   variable it is still visiting. *)
let ranks ctx =
  let rec visit stack ranks v =
    if SM.mem v ranks || List.mem v stack then ranks
    else
      let b = lookup_bound ctx v in
      let above =
        List.concat_map Poly.vars (Option.to_list b.lo @ Option.to_list b.hi)
      in
      let ranks = List.fold_left (visit (v :: stack)) ranks above in
      let height u h =
        match SM.find_opt u ranks with Some r -> max h (r + 1) | None -> h
      in
      SM.add v (List.fold_right height above 0) ranks
  in
  SM.fold (fun v _ ranks -> visit [] ranks v) ctx.bounds SM.empty

(* What the search derives from a context alone, each part built on
   first use: the witness assignments, which fall back to [least] for a
   seed [assignment] fails, and the ranks of the elimination order. *)
type derived = {
  witnesses : (int * int SM.t option Lazy.t) list;
  ranks : int SM.t Lazy.t;
}

(* The derived state of the last [window] contexts the search missed
   on, most recently used first.  The goals over one context arrive
   across queries, not only as subgoals of one goal, so a short window
   of contexts serves them; comparing a context with [equal] is cheap
   next to building its assignments. *)
let window = 8

let recent : (t * derived) list ref = ref []

let derived ctx =
  match List.partition (fun (c, _) -> equal c ctx) !recent with
  | (_, d) :: _, rest ->
      recent := (ctx, d) :: rest;
      d
  | [], rest ->
      let witness seed =
        match assignment ctx seed with None -> least ctx seed | m -> m
      in
      let d =
        {
          witnesses = List.map (fun s -> (s, lazy (witness s))) witness_seeds;
          ranks = lazy (ranks ctx);
        }
      in
      recent := (ctx, d) :: List.filteri (fun i _ -> i < window - 1) rest;
      d

(* Does some admissible assignment make [p] negative? *)
let refutable d p =
  List.exists
    (fun (seed, m) ->
      match Lazy.force m with
      | Some m -> Poly.eval (env_of seed m) p < 0
      | None -> false)
    d.witnesses

(* The variables of [p], innermost first; equal ranks in name order. *)
let elimination_order d p =
  let ranks = Lazy.force d.ranks in
  let rank v = Option.value (SM.find_opt v ranks) ~default:0 in
  List.stable_sort (fun u v -> compare (rank v) (rank u)) (Poly.vars p)

(* ---------------------------------------------------------------- *)
(* Triangular-bound saturation                                       *)
(* ---------------------------------------------------------------- *)

(* A recorded pair of bounds lo <= v <= hi implies lo <= hi for every
   satisfying assignment, and when another variable [u] occurs linearly
   with a unit coefficient in hi - lo, that implication is itself a
   bound on [u].  Propagating such derived bounds to a (bounded)
   fixpoint is what lets the prover reason through *triangular* nests,
   where an inner range's width depends on the outer variables: from
   0 <= j <= i - 1 it derives i >= 1, and if additionally i <= m - 1
   then m >= 2.  This is exactly the missing step in LUD's interior
   write-race obligations, where the per-thread disjointness proof
   needs sign(m) with m the data-dependent trailing-block count
   (m = q - 1 - k under 0 <= jv <= bi - 1, 0 <= bi <= m - 1).

   Each derived bound only *replaces* a recorded one when interval
   evaluation proves it at least as tight, so saturation never loses
   information, and it is sound because every derived bound is implied
   by the recorded ones: the satisfying assignments of the saturated
   context are exactly those of the original. *)

let saturate_round ctx0 =
  let tighter_lo ctx cand = function
    (* cand >= old, by interval evaluation under the current context *)
    | None -> true
    | Some old -> Ext.ge0 (fst (poly_interval ctx 4 [] (Poly.sub cand old)))
  in
  let tighter_hi ctx cand = function
    | None -> true
    | Some old -> Ext.ge0 (fst (poly_interval ctx 4 [] (Poly.sub old cand)))
  in
  let derive_from_gap ctx gap =
    (* gap >= 0 is implied; mine it for unit-coefficient bounds. *)
    List.fold_left
      (fun ctx u ->
        let cs = Poly.coeffs_in u gap in
        if Array.length cs <> 2 then ctx
        else
          match Poly.to_const_opt cs.(1) with
          | Some 1 ->
              (* u + c >= 0, i.e. u >= -c *)
              let cand = Poly.neg cs.(0) in
              let prev = (lookup_bound ctx u).lo in
              if
                (match prev with
                | Some p -> not (Poly.equal p cand)
                | None -> true)
                && tighter_lo ctx cand prev
              then add_lo ctx u cand
              else ctx
          | Some (-1) ->
              (* c - u >= 0, i.e. u <= c *)
              let cand = cs.(0) in
              let prev = (lookup_bound ctx u).hi in
              if
                (match prev with
                | Some p -> not (Poly.equal p cand)
                | None -> true)
                && tighter_hi ctx cand prev
              then add_hi ctx u cand
              else ctx
          | _ -> ctx)
      ctx (Poly.vars gap)
  in
  SM.fold
    (fun _ b ctx ->
      match (b.lo, b.hi) with
      | Some lo, Some hi -> derive_from_gap ctx (Poly.sub hi lo)
      | _ -> ctx)
    ctx0.bounds ctx0

(* Memo-table capacities: when a table outgrows its cap it is flushed
   wholesale, trading re-derivation for bounded residency. *)
let sat_cap = 50_000
let nonneg_cap = 500_000
let verdict_cap = 50_000

(* Prover resource budget: a per-query cap on elimination searches
   (memo misses) and an optional override of the nonneg memo cap.
   Exhaustion is sound - the query answers "not proved" and the caller
   skips the rewrite - and is counted once per affected query in
   {!stats}. *)
type budget = { b_steps : int; b_memo : int }

let unlimited = { b_steps = -1; b_memo = -1 }
let the_budget = ref unlimited
let set_budget b = the_budget := b
let get_budget () = !the_budget

let goal_cap () =
  let b = !the_budget in
  if b.b_memo >= 0 then min b.b_memo nonneg_cap else nonneg_cap

(* Cache effectiveness counters, surfaced by [--verbose] reports and
   the bench JSON: a miss is a full saturation / a goal decided afresh
   (refuted by a witness, counted in [refuted], or searched) / a
   question a {!Verdicts} client decided afresh, a reset throws the
   accumulated table away. *)
type stats = {
  mutable sat_hits : int;
  mutable sat_misses : int;
  mutable sat_resets : int;
  mutable nonneg_hits : int;
  mutable nonneg_misses : int;
  mutable nonneg_resets : int;
  mutable refuted : int;
  mutable budget_exhausted : int;
  mutable verdict_hits : int;
  mutable verdict_misses : int;
}

let the_stats =
  {
    sat_hits = 0;
    sat_misses = 0;
    sat_resets = 0;
    nonneg_hits = 0;
    nonneg_misses = 0;
    nonneg_resets = 0;
    refuted = 0;
    budget_exhausted = 0;
    verdict_hits = 0;
    verdict_misses = 0;
  }

let stats () =
  {
    sat_hits = the_stats.sat_hits;
    sat_misses = the_stats.sat_misses;
    sat_resets = the_stats.sat_resets;
    nonneg_hits = the_stats.nonneg_hits;
    nonneg_misses = the_stats.nonneg_misses;
    nonneg_resets = the_stats.nonneg_resets;
    refuted = the_stats.refuted;
    budget_exhausted = the_stats.budget_exhausted;
    verdict_hits = the_stats.verdict_hits;
    verdict_misses = the_stats.verdict_misses;
  }

let reset_stats () =
  the_stats.sat_hits <- 0;
  the_stats.sat_misses <- 0;
  the_stats.sat_resets <- 0;
  the_stats.nonneg_hits <- 0;
  the_stats.nonneg_misses <- 0;
  the_stats.nonneg_resets <- 0;
  the_stats.refuted <- 0;
  the_stats.budget_exhausted <- 0;
  the_stats.verdict_hits <- 0;
  the_stats.verdict_misses <- 0

let pp_stats ppf (s : stats) =
  let rate h m = if h + m = 0 then 0. else 100. *. float_of_int h /. float_of_int (h + m) in
  Fmt.pf ppf
    "@[<v>saturation memo: %d hits / %d misses (%.1f%%), %d resets@,\
     nonneg memo: %d hits / %d misses (%.1f%%), %d resets, %d refuted@,\
     verdict memo: %d hits / %d misses (%.1f%%)@,\
     budget: %d queries exhausted@]"
    s.sat_hits s.sat_misses
    (rate s.sat_hits s.sat_misses)
    s.sat_resets s.nonneg_hits s.nonneg_misses
    (rate s.nonneg_hits s.nonneg_misses)
    s.nonneg_resets s.refuted s.verdict_hits s.verdict_misses
    (rate s.verdict_hits s.verdict_misses)
    s.budget_exhausted

module Ctx_tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let sat_memo : t Ctx_tbl.t ref = ref (Ctx_tbl.create 256)

let saturate ctx =
  match Ctx_tbl.find_opt !sat_memo ctx with
  | Some s ->
      the_stats.sat_hits <- the_stats.sat_hits + 1;
      s
  | None ->
      the_stats.sat_misses <- the_stats.sat_misses + 1;
      let rec go n ctx =
        if n = 0 then ctx
        else
          let ctx' = saturate_round ctx in
          if equal ctx' ctx then ctx else go (n - 1) ctx'
      in
      let s = go 3 ctx in
      if Ctx_tbl.length !sat_memo > sat_cap then begin
        the_stats.sat_resets <- the_stats.sat_resets + 1;
        Ctx_tbl.reset !sat_memo
      end;
      Ctx_tbl.add !sat_memo ctx s;
      s

(* ---------------------------------------------------------------- *)
(* The nonnegativity prover                                          *)
(* ---------------------------------------------------------------- *)

let max_depth = 10

(* Per-query budget accounting: [steps_left] counts the elimination
   searches (memo misses) the in-flight query may still spend; a
   negative value means unbudgeted.  [query_cut] records that the
   search was truncated by the step budget, so the exhaustion can be
   counted once per query rather than once per subgoal.  No clock
   bounds a search, so host load never decides a verdict. *)
let steps_left = ref (-1)
let query_depth = ref 0
let query_cut = ref false

let out_of_steps () =
  if !steps_left = 0 then begin
    query_cut := true;
    true
  end
  else false

let charge_step () = if !steps_left > 0 then decr steps_left

(* Wrap one public [prove_*] query: arm the step counter at the
   outermost entry, and book the exhaustion (if any) exactly once on
   the way out - exception-safely, so an injected pass crash cannot
   leak a half-armed budget. *)
let enter_query f =
  incr query_depth;
  if !query_depth = 1 then begin
    steps_left := (!the_budget).b_steps;
    query_cut := false
  end;
  let finish () =
    decr query_depth;
    if !query_depth = 0 && !query_cut then begin
      the_stats.budget_exhausted <- the_stats.budget_exhausted + 1;
      query_cut := false
    end
  in
  Fun.protect ~finally:finish f

module SS = Set.Make (String)

(* A nonnegativity goal: context, depth, shifted variables, polynomial. *)
module Goal_tbl = Hashtbl.Make (struct
  type nonrec t = t * int * string list * Poly.t

  let equal (c1, d1, s1, p1) (c2, d2, s2, p2) =
    d1 = d2 && Poly.compare p1 p2 = 0 && s1 = s2 && equal c1 c2

  let hash (c, d, s, p) = Hashtbl.hash (c.hash, d, s, Poly.hash p)
end)

let memo : bool Goal_tbl.t ref = ref (Goal_tbl.create 4096)

(* How to empty each table {!Verdicts} builds: a call swaps an empty
   table in and returns the function that swaps the old one back. *)
let verdict_tables : (unit -> unit -> unit) list ref = ref []

(* The memo tables, the verdict tables and the witness window swapped
   for empty ones while [f] runs: the proof work [f] itself needs,
   whatever the process proved before. *)
let with_cold_memo f =
  let sat = !sat_memo and goals = !memo and wits = !recent in
  let verdicts = List.map (fun cold -> cold ()) !verdict_tables in
  sat_memo := Ctx_tbl.create 256;
  memo := Goal_tbl.create 4096;
  recent := [];
  Fun.protect
    ~finally:(fun () ->
      sat_memo := sat;
      memo := goals;
      recent := wits;
      List.iter (fun restore -> restore ()) verdicts)
    f

(* A memo of a client's own questions under a context, kept like the
   other two tables: keyed by the context's [equal] and [hash], emptied
   by [with_cold_memo], flushed wholesale past its cap, counted in
   [stats].  A budgeted query may answer [false] where an unbudgeted
   one proves, so the table is read and filled only while the budget is
   [unlimited]: any budget sends the question to the client's own
   decision. *)
module Verdicts (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (struct
    type nonrec t = t * K.t

    let equal (c1, k1) (c2, k2) = K.equal k1 k2 && equal c1 c2
    let hash (c, k) = Hashtbl.hash (c.hash, K.hash k)
  end)

  let table = ref (Tbl.create 256)

  let () =
    let cold () =
      let saved = !table in
      table := Tbl.create 256;
      fun () -> table := saved
    in
    verdict_tables := cold :: !verdict_tables

  let decide ctx k f =
    if !the_budget <> unlimited then f ()
    else
      match Tbl.find_opt !table (ctx, k) with
      | Some r ->
          the_stats.verdict_hits <- the_stats.verdict_hits + 1;
          r
      | None ->
          the_stats.verdict_misses <- the_stats.verdict_misses + 1;
          let r = f () in
          if Tbl.length !table > verdict_cap then Tbl.reset !table;
          Tbl.add !table (ctx, k) r;
          r
end

(* Is variable [v] provably >= 0?  Used to justify monotonicity of
   higher powers of [v]. *)
let rec var_nonneg ctx depth v =
  match (lookup_bound ctx v).lo with
  | None -> false
  | Some lo -> nonneg ctx depth SS.empty lo

(* Core routine: [p] is already rewritten.  [shifted] records variables
   already rebased to a zero lower bound, to keep the shift strategy
   terminating. *)
and nonneg ctx depth shifted (p : Poly.t) : bool =
  match Poly.to_const_opt p with
  | Some c -> c >= 0
  | None ->
      if depth = 0 || out_of_steps () then false
      else
        (* Memoize on the full proof state: identical obligations recur
           heavily across the non-overlap checks of one compilation,
           and the elimination search reaches equal states along
           different variable orders.  A [false] computed under an
           exhausted step budget is not cached (it may be a budget
           artifact, not a refusal); a [false] backed by a
           counterexample always is.  The memo is read before the
           interval bound: a goal is stored only once its bound has
           failed, and the bound is a function of the context and the
           goal, so the order moves no verdict and no counter. *)
        let key = (ctx, depth, SS.elements shifted, p) in
        (match Goal_tbl.find_opt !memo key with
        | Some r ->
            the_stats.nonneg_hits <- the_stats.nonneg_hits + 1;
            r
        | None when Ext.ge0 (fst (poly_interval ctx 4 [] p)) -> true
        | None ->
            the_stats.nonneg_misses <- the_stats.nonneg_misses + 1;
            if Goal_tbl.length !memo > goal_cap () then begin
              the_stats.nonneg_resets <- the_stats.nonneg_resets + 1;
              Goal_tbl.reset !memo
            end;
            charge_step ();
            let d = derived ctx in
            if refutable d p then begin
              the_stats.refuted <- the_stats.refuted + 1;
              Goal_tbl.replace !memo key false;
              false
            end
            else
              let r = eliminate ctx depth shifted p (elimination_order d p) in
              if r || !steps_left <> 0 then
                Goal_tbl.replace !memo key r;
              r)

(* Try to remove or rebase one of the variables [vs] of [p], in order. *)
and eliminate ctx depth shifted p vs =
  let monotone_subst v =
    (* If p is monotone in v (all coefficients of positive powers have
       one provable sign), substitute the corresponding bound, fully
       eliminating v.  Coefficient sign subproofs get a reduced depth
       budget: they are usually shallow, and a generous budget makes the
       search explode on many-variable obligations (LUD's 2-D nests). *)
    let cdepth = min (depth - 1) 4 in
    let cs = Poly.coeffs_in v p in
    let higher = Array.to_list (Array.sub cs 1 (Array.length cs - 1)) in
    let needs_v_nonneg = Array.length cs > 2 in
    let all_nonneg =
      List.for_all (fun c -> nonneg ctx cdepth shifted c) higher
      && ((not needs_v_nonneg) || var_nonneg ctx cdepth v)
    in
    let all_nonpos =
      List.for_all (fun c -> nonneg ctx cdepth shifted (Poly.neg c)) higher
      && ((not needs_v_nonneg) || var_nonneg ctx cdepth v)
    in
    let b = lookup_bound ctx v in
    let try_subst bound =
      match bound with
      | Some q when not (Poly.mem_var v q) ->
          nonneg ctx (depth - 1) shifted (Poly.subst v q p)
      | _ -> false
    in
    (all_nonneg && try_subst b.lo) || (all_nonpos && try_subst b.hi)
  in
  (* Rebasing a variable renames its meaning, so every other fact in
     the context that mentions it must be rewritten with the same
     substitution - otherwise e.g. [i <= q - 1] would silently refer to
     the new, shifted [q]. *)
  let shift_ctx ctx v image new_bound =
    let sub q = Poly.subst v image q in
    make
      (SM.add v new_bound
         (SM.map
            (fun b -> { lo = Option.map sub b.lo; hi = Option.map sub b.hi })
            (SM.remove v ctx.bounds)))
      (SM.map sub ctx.eqs)
  in
  let shift_lo v =
    (* Rebase v to its lower bound: substitute v := lo + v' with
       v' >= 0 (reusing the name v), hoping all monomials become
       nonnegative.  Handles mixed-sign coefficients, e.g.
       2b^2 - 2b - 1 >= 0 for b >= 2. *)
    if SS.mem v shifted then false
    else
      let b = lookup_bound ctx v in
      match b.lo with
      | Some l when (not (Poly.mem_var v l)) && not (Poly.is_zero l) ->
          let image = Poly.add (Poly.var v) l in
          let p' = Poly.subst v image p in
          let ctx' =
            shift_ctx ctx v image
              {
                lo = Some Poly.zero;
                hi = Option.map (fun h -> Poly.sub h l) b.hi;
              }
          in
          nonneg ctx' (depth - 1) (SS.add v shifted) p'
      | _ -> false
  in
  let shift_hi v =
    (* Rebase v to its upper bound: substitute v := hi - v' with
       v' >= 0 (reusing the name v). *)
    if SS.mem v shifted then false
    else
      let b = lookup_bound ctx v in
      match b.hi with
      | Some u when not (Poly.mem_var v u) ->
          let image = Poly.sub u (Poly.var v) in
          let p' = Poly.subst v image p in
          let ctx' =
            shift_ctx ctx v image
              {
                lo = Some Poly.zero;
                hi = Option.map (fun l -> Poly.sub u l) b.lo;
              }
          in
          nonneg ctx' (depth - 1) (SS.add v shifted) p'
      | _ -> false
  in
  List.exists (fun v -> monotone_subst v || shift_lo v || shift_hi v) vs

(* ---------------------------------------------------------------- *)
(* Public interface                                                  *)
(* ---------------------------------------------------------------- *)

let prove_nonneg ctx p =
  enter_query (fun () ->
      if out_of_steps () then false
      else
        let ctx = saturate ctx in
        nonneg ctx max_depth SS.empty (rewrite ctx p))
let prove_pos ctx p = prove_nonneg ctx (Poly.sub p Poly.one)
let prove_le ctx a b = prove_nonneg ctx (Poly.sub b a)
let prove_lt ctx a b = prove_le ctx (Poly.add a Poly.one) b
let prove_ge ctx a b = prove_le ctx b a
let prove_gt ctx a b = prove_lt ctx b a
let prove_eq ctx a b = Poly.is_zero (rewrite ctx (Poly.sub a b))

(* Footprint-in-bounds queries (memory-IR linting): membership is the
   conjunction of two one-sided proofs; exclusion is a proof of its own
   (either strict side), so callers can distinguish a demonstrated
   violation from a mere failure to prove. *)
let prove_in_range ctx p ~lo ~hi = prove_le ctx lo p && prove_le ctx p hi

type range_verdict = In_range | Out_of_range | Undecided

let check_in_range ctx p ~lo ~hi =
  if prove_in_range ctx p ~lo ~hi then In_range
  else if prove_lt ctx p lo || prove_gt ctx p hi then Out_of_range
  else Undecided

(* Nonzero-ness may hold with a sign that varies over the domain (e.g.
   i*n + i - j with 0 <= i and i+1 <= j <= n-1 is negative at i = 0 and
   positive for i >= 1).  When a direct sign proof fails, case-split a
   variable at its constant lower bound: v = lo (substituted) versus
   v >= lo + 1 (strengthened context). *)
let prove_nonzero ctx p =
  let direct ctx p = prove_pos ctx p || prove_pos ctx (Poly.neg p) in
  let p = rewrite ctx p in
  direct ctx p
  ||
  let split_var v =
    match (lookup_bound ctx v).lo with
    | Some lo when Poly.is_const lo ->
        let at_lo = Poly.subst v lo p in
        let ctx_above = add_lo ctx v (Poly.add lo Poly.one) in
        direct ctx at_lo && direct ctx_above p
    | _ -> false
  in
  List.exists split_var (Poly.vars p)

(* Sign of a polynomial under the context, when decidable. *)
type sign = Pos | Neg | Zero | Unknown

let sign ctx p =
  if prove_eq ctx p Poly.zero then Zero
  else if prove_pos ctx p then Pos
  else if prove_pos ctx (Poly.neg p) then Neg
  else Unknown

let pp_bound ppf (v, b) =
  let pp_opt ppf = function
    | None -> Fmt.string ppf "_"
    | Some p -> Poly.pp ppf p
  in
  Fmt.pf ppf "%a <= %s <= %a" pp_opt b.lo v pp_opt b.hi

let pp ppf ctx =
  Fmt.pf ppf "@[<v>eqs: %a@,bounds: %a@]"
    Fmt.(list ~sep:comma (pair ~sep:(any " := ") string Poly.pp))
    (SM.bindings ctx.eqs)
    Fmt.(list ~sep:comma pp_bound)
    (SM.bindings ctx.bounds)
