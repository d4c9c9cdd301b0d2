(** Offset-based block packing: the whole-program arena planner.

    Runs after reuse + cleanup as the pipeline's fourth variant
    ({!val:Pipeline.compile} exposes it as [pack]).  Whole-block
    coalescing ({!module:Reuse}) merges a later allocation into an
    earlier one only when one block can stand in for the other in its
    entirety; production memory planners go further and place many
    blocks at {e byte offsets inside one arena}, so simultaneously-live
    blocks co-reside in a single device allocation and short-lived
    blocks reuse address ranges at sub-block granularity.

    The planner runs in two phases.  The {e whole-program} phase packs
    the program's top-level block from a single interference graph
    spanning scopes:

    - the top block's own surviving [EAlloc]s, with live intervals
      [\[first_ref, last_ref\]] from the coalescer's first-reference
      machinery ({!val:Reuse.block_refs} over the alias closure) - and,
      uniquely at the top level, members escaping into the {e program}
      result are packable too, with an open-ended interval (the arena
      outlives the body), which folds result allocations into the
      program arena;
    - {e promoted} members: allocations in nested scopes whose size is
      evaluable at the top level and whose alias closure never escapes
      any crossed block's result.  Crossing a kernel body multiplies
      the slot into a per-thread region (per-instance offset advanced
      by [size * linearized thread index], preserving per-thread
      isolation); crossing a sequential loop keeps one slot that every
      iteration's logically fresh instance re-occupies - a {e lifetime
      hole} in time.  A promoted member's interval collapses to its
      enclosing top-level statement.

    The second phase re-walks nested blocks (sequential loop bodies,
    conditional arms, kernel bodies) with the original per-block
    planner; members the first phase promoted have no annotations left
    and skip naturally, and failed promotions fall back to local
    packing unchanged.

    Placement is first-fit in emission order: candidate offsets are 0
    and the end offsets of already-placed interfering members, and a
    candidate is admissible when the placement is provably
    address-disjoint ({!val:Symalg.Prover.prove_ge} on the resolved
    offset polynomials) from {e every} placed interfering member.
    Non-interfering placements may overlap - that is the sub-block
    reuse.  Blocks the prover cannot place (or whose arena-extent
    comparison is undecidable) stay unpacked and are counted.  One
    arena is allocated per packed block, sized to the provably-largest
    member end; every member annotation is rebased into it (block
    renamed, index function's memory-side LMAD offset shifted by the
    placement), and the member [EAlloc]s are left orphaned for
    {!module:Cleanup}.

    Each arena emits a {!constructor:Certify.rewrite.Packing} rewrite
    with a {!constructor:Certify.claim.Fits_in_arena} obligation per
    placement, a {!constructor:Certify.claim.Packed_disjoint}
    obligation per interfering pair, and a
    {!constructor:Certify.claim.Hole_disjoint} obligation per lifetime
    hole - one for every promoted member crossing a sequential loop
    ([iter = Some loop]) and one for every non-interfering pair whose
    offset ranges are not provably disjoint ([iter = None]).
    {!module:Memlint}'s [reuse] rule independently re-checks the
    rebased footprints for offset-aware disjointness (hole sharing is
    accepted only through its flow/liveness exemptions), and
    {!module:Memtrace} replays the shifted footprints against the
    executor's traces.

    The pass mutates its input program (annotations are mutable);
    {!val:Pipeline.compile} hands it a private clone. *)

type options = {
  verbose : bool;
  pack : bool;  (** plan arenas; [false] is the identity pass *)
}

val default_options : options
(** Packing enabled, quiet. *)

val disabled : options
(** Identity pass ([--no-pack]). *)

type stats = {
  mutable arenas : int;  (** arenas allocated *)
  mutable packed : int;  (** blocks placed into an arena *)
  mutable unpacked : int;
      (** surviving blocks left standalone (load-bearing, escaping,
          alone in their scope, or prover-undecidable placement) *)
  mutable offset_proofs : int;  (** prover obligations discharged *)
  mutable holes : int;
      (** lifetime holes: offset ranges re-used across time
          (iteration holes of promoted members plus overlapping
          non-interfering pairs) *)
  mutable promoted : int;
      (** members lifted from nested scopes into the program arena *)
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

val is_arena : string -> bool
(** Is this block name an arena introduced by this pass?  (The
    executor's suballocation accounting keys on it.) *)

val optimize :
  ?options:options ->
  ?cert:Certify.recorder ->
  Ir.Ast.prog ->
  Ir.Ast.prog * stats
(** Plan arenas over the given (reuse-optimized) program.  Mutates
    (and returns) the program; re-run {!val:Lastuse.annotate} and
    {!val:Cleanup.run} afterwards to refresh liveness markers and
    collect the orphaned member allocations. *)
