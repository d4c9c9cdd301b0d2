(** A sound, incomplete prover for polynomial (in)equalities over integer
    variables with known symbolic bounds.

    This replaces the external SMT solver the paper used to discharge the
    inequalities produced by the non-overlap theorem (section V-C/V-D).
    All [prove_*] functions are sufficient-condition tests: [true] means
    the fact holds under every assignment satisfying the context; [false]
    means it could not be established (not that it is false). *)

(** Extended integers, used for interval evaluation. *)
module Ext : sig
  type t = NegInf | Fin of int | PosInf

  val add : t -> t -> t
  val mul : t -> t -> t
  val min : t -> t -> t
  val max : t -> t -> t
  val ge0 : t -> bool
  val pp : Format.formatter -> t -> unit
end

type t
(** A proof context: equality rewrites [v := p] plus per-variable
    inclusive bounds (themselves polynomials). *)

val empty : t

val equal : t -> t -> bool
(** Equality of the recorded bindings, whatever the insertion order
    that built either context. *)

val hash : t -> int
(** A hash of the bindings, compatible with {!equal}; computed once when
    the context is built. *)

val add_eq : t -> string -> Poly.t -> t
(** [add_eq ctx v p] records the rewrite [v := p]; e.g. the NW proof of
    Fig. 9 records [n := q*b + 1].  Existing facts are normalized with
    the new rule.  @raise Invalid_argument if [p] mentions [v]. *)

val add_range : t -> string -> ?lo:Poly.t -> ?hi:Poly.t -> unit -> t
(** Record inclusive bounds for a variable; bounds may be symbolic
    (e.g. a loop index [i] with [hi = q - 1]). *)

val add_hi : t -> string -> Poly.t -> t

val equalities : t -> (string * Poly.t) list
(** The recorded rewrite rules [v := p], in variable order. *)

val var_bounds : t -> (string * Poly.t option * Poly.t option) list
(** The recorded inclusive per-variable bounds [(v, lo, hi)], in
    variable order; [None] for an unconstrained end. *)

val valuation : t -> int -> (string -> int) option
(** [valuation ctx seed] is a concrete assignment built from [seed] that
    satisfies every recorded bound and equality of [ctx], or [None].  A
    variable with an equality takes its right-hand side's value, a
    ranged variable [seed] clamped into its evaluated bounds, and any
    other variable [seed] itself.  The assignment is checked against
    the whole context before it is returned, so [None] means this seed
    gave a point outside the context (an empty range, or a cycle of
    symbolic bounds the clamping could not close).  A goal negative at
    [Some env] is false under [ctx]: the certificate checker
    concretizes undecided claims with it.  The nonnegativity search
    refutes goals at these assignments too, and where a seed gives
    [None] it tries a private fallback instead (see {!prove_nonneg});
    [valuation] itself keeps to clamping, so the points the checker
    concretizes at, and with them the certificates, do not move. *)

val rewrite : t -> Poly.t -> Poly.t
(** Normalize a polynomial with the context's equality rules. *)

val interval : t -> Poly.t -> Ext.t * Ext.t
(** Best-effort inclusive interval for the polynomial's value. *)

val prove_nonneg : t -> Poly.t -> bool
(** Entry point of the elimination search.  Every goal the search has
    not decided before (a memo miss) is first evaluated at a few
    {!valuation}s of its own context; a negative value answers
    [false] at once, since no search could prove it.  Where a seed's
    clamped assignment leaves the context, the witness for that seed
    is the least solution of the lower bounds instead: each ranged
    variable starts at the seed and is raised to its lower bound,
    evaluated at the others, until a fixpoint (at most one round more
    than there are ranged variables), each variable with an equality
    takes its right-hand side's value, and the point counts only if it
    satisfies every bound and equality.  That closes the cyclic
    contexts saturation makes (NW memlint's race context, where
    [q >= k + s + 3] and [s <= q - k - 3]), in which no seed clamps
    to a point and a single false goal used to cost an exhaustive
    tree of about a thousand searches.  The search then eliminates
    the goal's variables innermost first, as Fourier-Motzkin
    projection does: a variable whose bounds mention another is tried
    before it (ranked by its height in the context's bound-dependency
    graph, cycles cut; equal ranks in name order).  So the first proof
    found closes on the inner loop index rather than backtracking
    through outer bounds, and renaming a program's variables leaves
    its search cost about where it was.  Neither choice moves a
    verdict: the search is an exhaustive, memoized disjunction over
    the variables whose order only decides which proof is found first,
    and a witness only answers goals that are false.  Only a query cut
    short by a step budget ({!set_budget}) can end otherwise, as the
    order decides how far its steps reach.  The assignments
    and ranks are built once per context and kept for the last few
    contexts seen, which {!with_cold_memo} empties too; they depend on
    the context alone, so no verdict depends on earlier queries.  Before
    searching, the context is {e saturated} with triangular-bound
    consequences: a recorded pair [lo <= v <= hi] implies
    [hi - lo >= 0], and when another variable occurs with a unit
    coefficient in that gap the implication is itself a bound on it
    (from [0 <= j <= i - 1] and [i <= m - 1] follow [i >= 1] and
    [m >= 2]).  This is what lets obligations over triangular
    iteration spaces - LUD's interior write-race disjointness - go
    through. *)

val prove_pos : t -> Poly.t -> bool
val prove_le : t -> Poly.t -> Poly.t -> bool
val prove_lt : t -> Poly.t -> Poly.t -> bool
val prove_ge : t -> Poly.t -> Poly.t -> bool
val prove_gt : t -> Poly.t -> Poly.t -> bool

val prove_eq : t -> Poly.t -> Poly.t -> bool
(** Decided by normal-form identity after rewriting (sound and, for
    polynomial identities under the recorded equalities, complete). *)

val prove_nonzero : t -> Poly.t -> bool

(** {1 Footprint-in-bounds queries}

    Used by the memory-IR linter ({!Core.Memlint}) to discharge the
    obligation that an index function's footprint stays inside its
    memory block. *)

val prove_in_range : t -> Poly.t -> lo:Poly.t -> hi:Poly.t -> bool
(** [prove_in_range ctx p ~lo ~hi] proves [lo <= p <= hi] (inclusive on
    both ends); sufficient-condition semantics like every [prove_*]. *)

(** Three-valued range verdict: [Out_of_range] is itself a {e proof}
    (of [p < lo] or [p > hi]), not merely a failure to prove
    membership. *)
type range_verdict = In_range | Out_of_range | Undecided

val check_in_range : t -> Poly.t -> lo:Poly.t -> hi:Poly.t -> range_verdict

(** Decidable-sign summary. *)
type sign = Pos | Neg | Zero | Unknown

val sign : t -> Poly.t -> sign
val pp : Format.formatter -> t -> unit

(** {1 Memoization limits and statistics}

    The prover keeps three kinds of memo table under one policy:
    saturated contexts, decided nonnegativity obligations, and the
    verdicts of a client's own questions ({!Verdicts}; the non-overlap
    test is its one client).  All are keyed by the context's {!hash}
    and {!equal}, all are emptied by {!with_cold_memo}, and each is
    flushed wholesale when it outgrows its cap: 50,000 contexts,
    500,000 obligations and 50,000 verdicts (bounded residency beats an
    eviction policy for the bursty obligation streams the pipeline
    produces).  {!stats} counts each table's hits and misses.  A
    nonnegativity goal is looked up before its interval bound is
    evaluated; it is stored only once that bound has failed, so the
    order moves no verdict and no counter. *)

val with_cold_memo : (unit -> 'a) -> 'a
(** [with_cold_memo f] runs [f] against empty memo tables (saturation,
    nonnegativity and every {!Verdicts} table) and an empty set of kept
    witness assignments, and then puts the previous ones back: [f]'s
    prover work, as {!stats} counts it, is what [f] needs on its own,
    not what earlier proofs left for it to look up.  Statistics and
    budgets are untouched. *)

(** A memo of a client's own yes/no questions, each decided under a
    context by prover queries: a table from (context, [K.t]) to the
    verdict, keyed with the context's {!equal} and {!hash} and [K]'s.
    It is read and filled only while the budget is {!unlimited}: under
    a step budget a question may be refused that an unbudgeted one
    proves, and [b_memo] bounds memoization, so any budget sends every
    question to the client's own decision.  The client's decision must
    be a function of the context and the key alone, as an unbudgeted
    prover query is. *)
module Verdicts (K : Hashtbl.HashedType) : sig
  val decide : t -> K.t -> (unit -> bool) -> bool
  (** [decide ctx k f] is [f ()], the verdict on question [k] under
      [ctx]: looked up when the same question was decided before under
      an equal context (a [verdict_hits]), else computed and stored (a
      [verdict_misses]). *)
end

(** {1 Resource budgets}

    A process-wide, per-query prover budget (CLI [--prover-budget]):
    [b_steps] caps the elimination searches (memo misses) any one
    [prove_*] query may spend ([-1] = unlimited; [0] refuses every
    query outright, before the nonneg memo is read, so {e every}
    obligation comes back unproved); a miss refuted by a concrete
    witness costs one step like any other; [b_memo] lowers the nonneg
    memo cap when nonnegative.  Any budget other than {!unlimited}
    bypasses the {!Verdicts} tables, so a budgeted question is always
    decided by queries under that budget.  No clock bounds a query, so
    host load never decides a verdict.  Exhaustion is sound - the query
    answers "not proved", the caller skips the rewrite - and is counted
    once per affected query in [stats ()].[budget_exhausted]. *)
type budget = { b_steps : int; b_memo : int }

val unlimited : budget
val set_budget : budget -> unit
val get_budget : unit -> budget

(** Cache effectiveness counters (process-wide, monotone until
    {!reset_stats}): a miss is a full saturation / a nonnegativity goal
    decided afresh, by a concrete witness ([refuted]) or by an
    elimination search / a {!Verdicts} question decided afresh; a
    reset discards the accumulated table. *)
type stats = {
  mutable sat_hits : int;
  mutable sat_misses : int;
  mutable sat_resets : int;
  mutable nonneg_hits : int;
  mutable nonneg_misses : int;
  mutable nonneg_resets : int;
  mutable refuted : int;
      (** Nonneg memo misses closed by a concrete counterexample
          instead of an elimination search. *)
  mutable budget_exhausted : int;
      (** Queries truncated by the step budget. *)
  mutable verdict_hits : int;
      (** {!Verdicts} questions answered from their table. *)
  mutable verdict_misses : int;
      (** {!Verdicts} questions decided afresh while the budget was
          {!unlimited}; a budgeted question counts in neither. *)
}

val stats : unit -> stats
(** A snapshot copy; safe to retain across further proving. *)

val reset_stats : unit -> unit
val pp_stats : Format.formatter -> stats -> unit
