(** The compilation pipeline: memory introduction (section IV),
    allocation hoisting, last-use analysis, array short-circuiting
    (section V), and dead-allocation cleanup. *)

type recovery = {
  r_fault : Fault.t;  (** the contained fault *)
  r_pass : string;  (** the blamed pass or layer ({!Fault.blame}) *)
  r_fallback : string;
      (** the ladder rung fallen back to:
          ["unopt" | "opt" | "reuse" | "skipped rewrites"] *)
}
(** One contained fault from a fail-safe compile: a crashing pass, an
    erroring lint report, a refuted certificate, or an exhausted prover
    budget, together with the variant the compile degraded to. *)

type compiled = {
  source : Ir.Ast.prog;  (** pristine, memory-agnostic *)
  unopt : Ir.Ast.prog;  (** memory-introduced + hoisted *)
  opt : Ir.Ast.prog;
      (** additionally short-circuited, dead allocations removed *)
  reuse : Ir.Ast.prog;
      (** additionally memory-block reused ({!Reuse}): dead blocks
          coalesced, per-iteration buffers double-buffered, dead
          existential chains removed *)
  pack : Ir.Ast.prog;
      (** additionally arena-packed ({!Pack}): the blocks surviving
          reuse placed at offsets inside per-scope arenas *)
  stats : Shortcircuit.stats;
  reuse_stats : Reuse.stats;
  pack_stats : Pack.stats;
  dead_allocs : int;  (** allocations eliminated by short-circuiting *)
  reuse_dead_allocs : int;
      (** further allocations eliminated by the reuse pass *)
  pack_dead_allocs : int;
      (** member allocations absorbed into arenas (removed by the
          packing pass's cleanup round) *)
  time_base : float;  (** seconds: memory introduction + hoisting *)
  time_sc : float;  (** seconds: the short-circuiting pass alone *)
  time_reuse : float;  (** seconds: the memory-block reuse pass alone *)
  time_pack : float;  (** seconds: the packing pass alone *)
  lint : (string * Memlint.report) list;
      (** one {!Memlint} report per pipeline stage (memintro, hoist,
          lastuse, shortcircuit, cleanup, reuse, pack), in pass order;
          empty unless compiled with [~lint:true] *)
  certs : (string * Certify.report) list;
      (** one checked {!Certify} certificate per pipeline pass
          ([memintro], [hoist], [shortcircuit], [cleanup], [reuse],
          [cleanup-reuse], [pack], [cleanup-pack] - the cleanup rounds
          after reuse and packing), in pass order; empty unless
          compiled with [~certify:true] *)
  recovery : recovery list;
      (** contained faults in containment order; only ever non-empty
          when compiled with [~fail_safe:true] *)
  prover_exhausted : int;
      (** prover queries truncated by the {!Symalg.Prover.budget}
          during this compile (exhaustion is sound: the affected
          rewrites were skipped) *)
}

val variant_names : string list
(** The variants' names in ladder order:
    [["unopt"; "opt"; "reuse"; "pack"]]. *)

val variants : compiled -> (string * Ir.Ast.prog) list
(** The compile's four variants in ladder order, each under its name
    in {!variant_names} - the names BENCH.json, traces and chaos use.
    The programs are the record's own, not copies. *)

val to_memory_ir : Ir.Ast.prog -> Ir.Ast.prog
(** Memory introduction + hoisting + last-use only (the "unoptimized"
    configuration of the paper's tables), unchecked: {!compile} builds
    the same program as {!compiled.unopt}, linting and certifying each
    pass when asked to. *)

val compile :
  ?options:Shortcircuit.options ->
  ?reuse:Reuse.options ->
  ?pack:Pack.options ->
  ?lint:bool ->
  ?certify:bool ->
  ?fail_safe:bool ->
  ?from:compiled * string ->
  Ir.Ast.prog ->
  compiled
(** Produce all four configurations from a source program (which is
    cloned, never mutated), timing the passes for the section V-D
    comparison.  [options] configures the short-circuiting pass
    ({!Shortcircuit.default_options} if omitted); [reuse] the
    memory-block reuse pass and [pack] the arena packing pass.  Each
    variant is the one below it plus one pass, so the variant below is
    already that pass switched off; {!variants} lists them in ladder
    order.  With [~lint:true] the {!Memlint} verifier runs after every
    pass of the optimized build and the reports are collected in
    {!compiled.lint}.  With [~certify:true] every pipeline pass -
    memory introduction, hoisting, short-circuiting, the cleanup
    rounds, reuse, and packing - emits per-rewrite proof obligations
    which {!Certify.check} re-derives against a snapshot of the pass's
    own input and its (pre-cleanup) output; the checked certificates
    land in {!compiled.certs}, so a failed obligation names the pass
    and rewrite that introduced it.

    With [~fail_safe:true] the compile runs the {e degradation ladder}:
    each variant beyond [unopt] is built on a private clone of the
    previous rung, and a crashing pass, an erroring lint report (when
    linting), or a refuted certificate (when certifying) discards that
    unit's output and falls back - pack -> reuse -> opt -> unopt -
    recording the fault and fallback in {!compiled.recovery} instead
    of aborting the compile.  [unopt] is the floor: there is no
    less-optimized memory IR to fall back to, so a fault while building
    it (memory introduction, hoisting, last-use) raises
    {!Fault.exception-Fault} in both modes.  Prover-budget exhaustion (a
    skipped rewrite, never an abort) is likewise summarized as a
    {!Fault.Prover_budget} recovery entry.

    [~from:(base, pass)] resumes [base], an earlier compile of the same
    program with the same pass options, at the rung [pass] opens
    (["shortcircuit"] builds [opt], ["reuse"] builds [reuse],
    ["pack"] builds [pack]).  [unopt] and every rung below [pass]'s
    are [base]'s programs (shared, not copied), with their statistics,
    dead-allocation counts and times, and with their lint reports and
    certificates when this compile asks for them; [pass]'s rung and
    the rungs above it are built as in a fresh compile, on clones, so
    [base] is never mutated.  [recovery] and [prover_exhausted] count
    the rebuilt rungs only.  Raises [Invalid_argument] when [pass] is
    not one of those three, when [base] is degraded ([recovery <> []]
    or [prover_exhausted > 0]: its counts cannot be split by rung), or
    when this compile lints or certifies and [base] did not. *)

val first_lint_error :
  (string * Memlint.report) list -> (string * Memlint.violation) option
(** The first stage whose report errors - i.e. the pass that introduced
    the first violation (all earlier stages linted clean). *)

val first_cert_failure :
  (string * Certify.report) list -> (string * Certify.checked) option
(** The first pass whose certificate contains a refuted obligation (the
    rewrite the independent checker could not justify). *)
