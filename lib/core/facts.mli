(** Program facts shared by the memory passes and {!Memlint}.

    Short-circuiting, memory introduction, reuse, packing and memlint
    reason over the same facts about a program: the i64 scalar
    definitions that translate index functions into scope (section
    V-A(b)), the memory-side LMAD of an index function, the iteration
    ranges behind dimension promotion (section II-B), the section V-B
    "other thread" case split, and the binders in scope with the
    blocks they live in.  This module is their one copy.

    {!Certify} does not use it: the certificate checker re-derives
    these facts by private scans, so a bug here cannot acquit a
    certificate (DESIGN.md section 10). *)

(** {1 Scalar table} *)

val atom_poly : Ir.Ast.atom -> Symalg.Poly.t option
(** An integer constant or a variable as a polynomial. *)

val scalar_def : Ir.Ast.stm -> (string * Symalg.Poly.t) option
(** The i64 definition a statement contributes to the scalar table:
    an index polynomial, an integer atom, or the sum, difference or
    product of two integer atoms.  [None] for every other statement,
    including division, remainder, minimum and maximum. *)

val add_scalars :
  Symalg.Poly.t Symalg.Poly.SM.t ->
  Ir.Ast.stm list ->
  Symalg.Poly.t Symalg.Poly.SM.t
(** Extend a scalar table with the statements' {!scalar_def}s. *)

val resolve : Symalg.Poly.t Symalg.Poly.SM.t -> Symalg.Poly.t -> Symalg.Poly.t
(** Substitute scalar definitions to a fixpoint, down to parameters and
    loop variables; the identity when the table is cyclic. *)

val resolve_lmad :
  Symalg.Poly.t Symalg.Poly.SM.t -> Lmads.Lmad.t -> Lmads.Lmad.t
(** {!resolve} on every polynomial of an LMAD. *)

val resolve_ixfn :
  Symalg.Poly.t Symalg.Poly.SM.t -> Lmads.Ixfn.t -> Lmads.Ixfn.t
(** {!resolve} on every polynomial of an index function. *)

(** {1 Binders and the blocks they live in} *)

val binders : Ir.Ast.stm -> Ir.Ast.pat_elem list
(** The pattern elements a statement binds, followed by a loop's
    parameters. *)

val add_mems :
  string Map.Make(String).t ->
  Ir.Ast.pat_elem list ->
  string Map.Make(String).t
(** Map every annotated pattern element to its memory block. *)

val exp_vars : Ir.Ast.exp -> Ir.Ast.SS.t -> Ir.Ast.SS.t
(** Variables occurring in {e expression} position in an expression -
    everything except memory annotations and index polynomials, whose
    variables are scalars - added to the accumulator. *)

val exp_vars_block : Ir.Ast.block -> Ir.Ast.SS.t -> Ir.Ast.SS.t
(** {!exp_vars} over a whole block, its results included.  A block name
    with such an occurrence is structurally load-bearing: reuse never
    coalesces it and packing never places it. *)

val block_refs : string Map.Make(String).t -> Ir.Ast.SS.t -> Ir.Ast.SS.t
(** A statement's free variables, as given, plus the blocks of the
    arrays among them (the map takes array variables to their block). *)

val res_refs : string Map.Make(String).t -> Ir.Ast.block -> Ir.Ast.SS.t
(** Names a block's result atoms reference, plus their blocks. *)

(** {1 The memory side} *)

val memory_lmad : Lmads.Ixfn.t -> Lmads.Lmad.t
(** The LMAD adjacent to memory: the last link of the index function's
    chain, whose point set contains the chain's footprint. *)

val sliced_ixfn :
  Symalg.Prover.t -> Ir.Ast.slice -> Lmads.Ixfn.t -> Lmads.Ixfn.t option
(** The index function of a slice.  [None] when an LMAD slice meets a
    layout that does not flatten.
    @raise Invalid_argument when a triplet slice's rank differs from
    the index function's. *)

val refset_of_ixfn : Lmads.Ixfn.t -> Lmads.Refset.t
(** The locations an index function accesses; [Top] for a multi-LMAD
    chain. *)

val thread_slice : (string * Symalg.Poly.t) list -> Lmads.Ixfn.t -> Lmads.Ixfn.t
(** The slot of one thread of a mapnest with this nest in its result's
    index function: the nest variables fixed, the remaining dimensions
    whole. *)

(** {1 Iteration spaces} *)

val with_range : Symalg.Prover.t -> string -> Symalg.Poly.t -> Symalg.Prover.t
(** [with_range ctx v n] assumes [0 <= v <= n - 1], [n] as given. *)

val with_nest :
  Symalg.Prover.t -> (string * Symalg.Poly.t) list -> Symalg.Prover.t
(** {!with_range} for every variable of a nest. *)

val expand :
  Symalg.Prover.t ->
  (string * Symalg.Poly.t) list ->
  Lmads.Refset.t ->
  Lmads.Refset.t
(** Promote each listed iteration variable to an LMAD dimension of its
    count (section II-B), first to last. *)

val other_threads :
  where:string ->
  tag:string ->
  disjoint:(Symalg.Prover.t -> Lmads.Refset.t -> Lmads.Refset.t -> bool) ->
  Symalg.Prover.t ->
  (string * Symalg.Poly.t) list ->
  w:Lmads.Refset.t ->
  u:Lmads.Refset.t ->
  bool
(** The section V-B case split: does one thread's write set [w] avoid
    the use set [u] of every other thread of the nest?  For each nest
    dimension [v] in order, the other thread's [v] is a proof-local
    binder [tag#v] ({!Binder.name}, blamed on [where]) strictly below
    and then strictly above [v]; the dimensions after [v] are expanded
    on both sides, [w] first.  [disjoint] answers each case. *)

(** {1 Scopes} *)

type scope = {
  ctx : Symalg.Prover.t;  (** the iteration ranges of the enclosing nests *)
  scalars : Symalg.Poly.t Symalg.Poly.SM.t;  (** scalar definitions *)
  mems : string Map.Make(String).t;  (** binders' blocks *)
}
(** What a walk knows at a block: the prover context, the scalar table
    and the blocks of the binders in scope. *)

val top : Ir.Ast.prog -> scope
(** The program's context, no scalar definitions, the parameters'
    blocks. *)

val add_block : scope -> Ir.Ast.block -> scope
(** Add a block's scalar definitions and its statements' {!binders}. *)

val enter : scope -> Ir.Ast.stm -> scope
(** The scope of a statement's sub-blocks: a mapnest adds its nest's
    ranges, a loop its variable's range and its parameters' blocks,
    each count resolved through the scalar table. *)

val map_sub_blocks :
  (scope -> Ir.Ast.block -> Ir.Ast.block) -> scope -> Ir.Ast.stm -> Ir.Ast.stm
(** Rebuild a statement with every sub-block rewritten under
    {!enter}'s scope, in [Ir.Ast.map_exp_blocks]' order. *)
