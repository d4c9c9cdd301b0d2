(** Memtrace: dynamic cross-checking of execution traces against the
    static memory annotations.

    {!module:Memlint} is the static half of the verification stack: it
    checks, between pipeline passes, that the LMAD annotations are
    internally consistent and that the optimizer's rewrites preserved
    them.  Memtrace is the dynamic half: it replays a {!type:Trace.t}
    collected by
    [Gpu.Exec.run ~trace:true] and confirms the {e execution} stayed
    inside the static claims.  Together they close the loop - a bug in
    the executor (or an unsound rewrite that memlint's prover happened
    to bless) shows up as a concrete offset escaping a concrete region.

    Three families of checks run over the event list, in program order:

    - {b footprint}: every offset a kernel actually wrote lies in the
      union of its declared write regions (the static LMAD reference
      sets, concretized at launch); every offset read lies in the
      declared read or write regions.  Blocks allocated inside the
      kernel (thread-private scratch) are exempt; declared regions that
      could not be concretized (they mention per-thread variables)
      cover the whole block and are tallied as {e assumed} rather than
      {e checked}.
    - {b circuit}: an elided copy must be a genuine no-op - same block,
      and the source and destination index functions produce identical
      offset images over the copied shape.  A copy that {e was}
      performed within a single block must have disjoint images, or the
      element order would be observable.
    - {b last-use}: no kernel read or performed copy reads a block's
      {e dead contents} - dead meaning after the last [Last_use]
      marker mentioning the block and before anything wrote it again.
      Short-circuiting reuses dead blocks on purpose, so writes revive
      a block; the bug this catches is consuming values the static
      liveness said nobody needs.

    Unlike the static linter there is no [Undecided] verdict: all
    checks are exact arithmetic over concrete integers.  Coverage is
    instead reported through [offsets_checked] / [offsets_assumed]. *)

type violation = {
  rule : string;  (** ["footprint"], ["circuit"] or ["last-use"] *)
  at : string;  (** kernel label or copy description *)
  detail : string;  (** human-readable explanation with concrete offsets *)
}

type report = {
  program : string;  (** from the trace's provenance *)
  variant : string;  (** which pipeline stage produced the program *)
  kernels : int;  (** kernel launches replayed *)
  copies : int;  (** copies replayed *)
  elided : int;  (** of which were short-circuited *)
  offsets_checked : int;
      (** accesses confirmed inside an enumerated declared region *)
  offsets_assumed : int;
      (** accesses covered only by a whole-block or fresh-block claim *)
  violations : violation list;  (** empty iff the trace checks clean *)
}

val check : Trace.t -> report
(** Replay the trace and run all three check families over the
    offsets it recorded. *)

val ok : report -> bool
(** [ok r] iff [r.violations = []]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
