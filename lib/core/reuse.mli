(** Memory-block reuse: coalesce allocations whose live ranges do not
    interfere.

    Runs after short-circuiting + cleanup as the pipeline's third
    variant ({!val:Pipeline.compile} exposes it as [reuse]).  Four
    strategies:

    - {e dead existential chains} - [mem, array] loop groups whose
      memory component no annotation references (every array was
      rebased into an enclosing block by short-circuiting) are removed
      group-wise, orphaning their [EAlloc] for {!module:Cleanup};
    - {e double-buffer rotation} - a loop allocating a fresh block per
      iteration and carrying it forward is rewritten to rotate two
      physical buffers (one hoisted spare), dropping the per-iteration
      allocation and collapsing peak footprint from [trip * size] to
      [2 * size];
    - {e same-scope coalescing} - within a lexical block, a later
      allocation rebinds into an earlier one that is provably dead
      (live ranges ordered by statement index) and provably large
      enough ({!val:Symalg.Prover.prove_ge} on the sizes, or
      per-annotation {!val:Lmads.Lmad.bounds} footprint fitting);
    - {e cross-scope hoisting} - a per-iteration temporary of a
      sequential loop whose contents provably die within the iteration
      (no expression-position occurrence, no array of the block in the
      body's results) is allocated once in front of the loop instead,
      with a loop-variable-dependent size generalized to its iteration
      maximum by a prover obligation; hoisted blocks of sibling loops
      then coalesce under the same-scope rule.  The same strategy
      hoists through [if] arms: an allocation local to an arm (dead by
      the arm's end, size computable above the conditional) lifts in
      front of the [if] - when both arms hold one, the prover picks
      the dominating size and the other arm's block is renamed into
      the lifted block; an unpaired arm-local allocation lifts only
      inside a sequential loop body, where the loop-level hoist
      amortizes it.  Each such lift emits an
      {!constructor:Certify.rewrite.If_hoist} rewrite with
      {!constructor:Certify.claim.Dies_in_arm} and branch-wise
      {!constructor:Certify.claim.Size_ge} obligations.

    Liveness comes from the same reference/alias machinery as the
    last-use analysis ({!Facts.block_refs}, which {!module:Pack}'s
    interference graph shares): a block is live from its allocation to the last
    statement whose free variables include it or any array annotated
    into it.  {!module:Memlint}'s [reuse] rule independently rejects
    coalescings whose live ranges overlap; {!module:Memtrace} replays
    traced executions of the reused program.

    The pass mutates its input program (annotations are mutable);
    {!val:Pipeline.compile} hands it a private clone. *)

type options = { verbose : bool }

val default_options : options
(** Quiet. *)

type stats = {
  mutable candidates : int;  (** (earlier, later) alloc pairs examined *)
  mutable coalesced : int;
  mutable size_proofs : int;  (** prover obligations discharged *)
  mutable chain_links : int;  (** dead existential mem positions removed *)
  mutable rotated : int;  (** loops rewritten to double-buffering *)
  mutable hoisted : int;
      (** allocations lifted out of loop bodies or [if] arms *)
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

val optimize :
  ?options:options ->
  ?cert:Certify.recorder ->
  Ir.Ast.prog ->
  Ir.Ast.prog * stats
(** Apply the reuse strategies.  Mutates (and returns) the given
    program; re-run {!val:Lastuse.annotate} and {!val:Cleanup.run}
    afterwards to refresh liveness markers and collect orphaned
    allocations.

    With [cert], every applied rewrite emits its proof obligations for
    independent re-validation by {!val:Certify.check}: the dead-chain
    names, the rotation's trip-count/size proofs and
    initializer-liveness claim, each coalescing's live-range disjointness
    (with the moved annotations) and size-domination proof under the
    prover context it was discharged in, each loop-hoisted allocation's
    dies-within-iteration claim, and each [if]-arm hoist's arm-local
    death and branch-wise size-domination claims. *)
