(** Memcert: per-rewrite proof certificates and an independent
    translation-validation checker for the optimization pipeline.

    The paper's rewrites are sound only under side conditions - the
    Non-Overlap theorem for short-circuited copies (section V-C,
    Fig. 8), size/liveness domination for merged blocks - that the
    passes discharge internally, so a prover-{e usage} bug in
    {!Shortcircuit} or {!Reuse} silently miscompiles.  Following the
    translation-validation discipline, every rewrite site emits an
    {!obligation}: the rewrite kind plus the symbolic claim it relied
    on (concrete LMADs, polynomials, the exact prover context).  An
    independent checker then re-derives each claim from the pre-pass
    and post-pass programs using only {!Symalg.Prover},
    {!Lmads.Nonoverlap}, {!Lastuse} and {!Lmads.Lmad.bounds} - none of
    the emitting pass's decision code, and none of the program facts
    the passes share through {!Facts} - completing the verification
    stack: memlint (whole-IR invariants), memtrace (dynamic replay),
    memcert (per-rewrite justification).

    Claims the prover cannot re-establish symbolically are
    {e concretized}: small concrete shape assignments consistent with
    the recorded context are enumerated, and each either yields a
    violating index witness (the obligation is {e false}, not merely
    undecided) or validates the claim dynamically at those sizes. *)

module P = Symalg.Poly
module Pr = Symalg.Prover
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module Refset = Lmads.Refset

(** {1 Certificate IR} *)

(** The rewrite a claim justifies, named by IR bindings so failures
    read like lint errors. *)
type rewrite =
  | Copy_elide of {
      candidate : string;  (** the array rebased into the destination *)
      dst_block : string;  (** the destination memory block *)
      at_binding : string;  (** the circuit statement's first binder *)
    }
  | Chain_removal of {
      loop_binding : string;  (** first result binder of the loop *)
      position : int;  (** removed loop-carried position *)
    }
  | Rotation of {
      loop_binding : string;
      init_block : string;  (** memory of the initial value, after loop *)
      init_arr : string;
      spare_block : string;  (** the introduced rotation spare *)
    }
  | Coalesce of { earlier : string; later : string }
  | Hoist of { block : string; loop_binding : string }
  | Mem_intro of {
      block : string;  (** the freshly introduced memory block *)
      binding : string;  (** the array the block backs *)
    }
      (** {!Memintro} materialized an allocation for an array. *)
  | Exist_intro of { binding : string  (** the grouped array binder *) }
      (** {!Memintro} wrapped an [if]/[loop] result in the
          [mem, witness…, array] existential grouping of section IV. *)
  | Float_up of { binding : string }
      (** {!Hoist} floated the statement binding [binding] to the top
          of its block (or out of an [if] arm, for scalars). *)
  | Dead_removal of { block : string }
      (** {!Cleanup} deleted the allocation of [block]. *)
  | If_hoist of {
      block : string;
      if_binding : string;  (** first binder of the conditional *)
    }
      (** {!Reuse} (strategy 4) lifted an arm-local allocation above
          its conditional. *)
  | Packing of {
      arena : string;  (** the introduced arena block *)
      members : string list;  (** packed blocks, in placement order *)
    }
      (** {!Pack} placed the member blocks at offsets inside one
          arena allocation. *)

(** The symbolic fact the pass relied on. *)
type claim =
  | Nonoverlap of { w : Refset.t; u : Refset.t }
      (** The write set [w] is disjoint from the use set [u]
          (Non-Overlap theorem, Fig. 8). *)
  | Size_ge of { larger : P.t; smaller : P.t }
      (** [larger >= smaller] under the context (size domination,
          positive trip counts). *)
  | Bounds_in of { lmad : Lmad.t; lo : P.t; hi : P.t }
      (** The LMAD's offset extrema lie within [\[lo, hi\]]. *)
  | Last_use of { var : string; at_binding : string }
      (** [var]'s last (transitive) use is the statement binding
          [at_binding]. *)
  | Rebased of { var : string; mem : Ir.Ast.mem_info }
      (** After the pass, [var] is annotated with exactly [mem], whose
          footprint fits its block. *)
  | Dead_mem of { names : string list }
      (** The memory variables [names] are referenced only structurally
          (loop-carried plumbing) before the pass and are gone after. *)
  | Dead_after of { names : string list; binding : string }
      (** [names] are unreferenced after the statement binding
          [binding] (and inside its body, if compound). *)
  | Live_disjoint of {
      earlier : string;
      later : string;
      movers : string list;  (** arrays re-annotated into [earlier] *)
    }
      (** The live range of block [earlier] ends before that of block
          [later] begins, so they may share storage. *)
  | Dies_each_iter of { block : string; loop_binding : string }
      (** [block]'s contents never survive an iteration of the loop
          binding [loop_binding], so its allocation may hoist. *)
  | Sole_occupant of { block : string; ixfn : Ixfn.t }
      (** Every annotation into [block] uses exactly [ixfn] (the
          rotation spare inherits a safe size). *)
  | Grouped of { mem : string; wits : string list; arr : string }
      (** Existential grouping well-formedness: the post-pass pattern
          binding [arr] contains the contiguous run
          [mem; wits…; arr], typed [TMem]/[i64]/array, with [arr]
          annotated into [mem] and branch/param arities matching. *)
  | Footprint_fits of { block : string; arr : string }
      (** ixfn/alloc-size consistency: [arr]'s post-pass index
          function stays within the allocation of [block] - both
          re-derived from the post program, nothing trusted. *)
  | Dominance of { binding : string }
      (** Hoisting preserved dominance: at [binding]'s post-pass
          position every free variable is already defined, and nothing
          executing earlier references [binding]. *)
  | Unreferenced of { name : string }
      (** Zero remaining references: [name] has no annotation mention
          and no expression-position occurrence (structural loop
          plumbing included) in the pre program, and is gone after. *)
  | Dies_in_arm of { block : string; if_binding : string; arm : bool }
      (** [block]'s contents never leave the [arm] ([true] = then) of
          the conditional binding [if_binding], so its allocation may
          lift above the [if]. *)
  | Packed_disjoint of {
      arena : string;
      a : string;
      a_off : P.t;
      a_size : P.t;
      b : string;
      b_off : P.t;
      b_size : P.t;
    }
      (** Two {e interfering} placements (overlapping live intervals)
          occupy provably disjoint address ranges of the arena:
          [b_off >= a_off + a_size] or [a_off >= b_off + b_size].  The
          checker re-derives both sizes from the post program's member
          allocations, so only the offsets are taken from the claim -
          and a forged offset is refuted symbolically or by a
          concretization witness. *)
  | Fits_in_arena of {
      arena : string;
      member : string;
      off : P.t;
      size : P.t;
      extent : P.t;
    }
      (** The placement lies inside the arena:
          [0 <= off] and [off + size <= extent].  The checker
          re-derives the member's size and the arena's extent from the
          post program's allocations, never from the claim. *)
  | Hole_disjoint of {
      arena : string;
      a : string;
      a_off : P.t;
      a_size : P.t;
      b : string;
      b_off : P.t;
      b_size : P.t;
      iter : string option;
    }
      (** A lifetime hole: storage of arena [arena] is re-used across
          time rather than across address space.  With [iter = None],
          two {e non-interfering} members share an offset range, and
          the checker re-derives either address-disjointness (sizes
          from the post program's allocations) or live-range
          disjointness in the deepest pre-program block where the two
          members' binding paths diverge.  With [iter = Some loop],
          [a = b]: one member's slot is re-occupied by the logically
          fresh per-iteration instances of the same allocation across
          iterations of the loop binding [loop]; the checker re-derives
          per-iteration freshness (no carried alias of the member, nor
          any array living in it, escapes through the loop body's
          result) and that the arena's allocation left the loop. *)

type obligation = {
  o_id : int;  (** emission order within the pass *)
  o_pass : string;
  o_rewrite : rewrite;
  o_claim : claim;
  o_ctx : Pr.t;  (** the prover context the pass used at the site *)
}

(** {1 Recording} *)

type recorder
(** A mutable obligation sink threaded through an optimization pass. *)

val recorder : pass:string -> recorder
val emit : recorder -> rewrite -> ?ctx:Pr.t -> claim -> unit
val obligations : recorder -> obligation list
(** In emission order. *)

val count : recorder -> int

(** {1 Checking} *)

type verdict =
  | Proved  (** re-derived symbolically *)
  | Concretized of int list
      (** not re-proved symbolically; validated dynamically at these
          seed sizes (empty: no admissible concrete instance found -
          undecided) *)
  | Failed of string  (** refuted, with a witness or structural reason *)

type checked = { obl : obligation; verdict : verdict; detail : string }

type report = {
  pass : string;
  emitted : int;
  proved : int;
  concretized : int;
  failed : int;
  checked : checked list;  (** in obligation order *)
}

val check :
  pass:string ->
  pre:Ir.Ast.prog ->
  post:Ir.Ast.prog ->
  obligation list ->
  report
(** Re-derive every obligation from the pre-/post-pass programs, which
    are only read: last uses are re-derived on a clone of [pre], made
    for the first [Last_use] obligation whichever pass emitted it.
    Each scan of either program runs at most once per call. *)

val ok : report -> bool
(** No failed obligations. *)

val failures : report -> checked list

(** {1 Rendering} *)

val pp_checked : Format.formatter -> checked -> unit
val pp_report : Format.formatter -> report -> unit

val json_of_report : report -> Json.t
(** A self-contained JSON object (counts plus one record per
    obligation), consumed by [repro certify --json] and CI. *)
