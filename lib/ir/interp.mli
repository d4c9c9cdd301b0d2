(** The reference interpreter: purely functional semantics, memory
    annotations ignored.

    This is the ground truth all compiler passes are validated against:
    a transformed program must produce {!Value.bit_equal} results here
    AND on the memory-aware executor ({!Gpu.Exec}).  Every view
    materializes and every update copies.

    It is staged, because every validation, chaos campaign and
    benchmark set-up runs it: [run] first resolves each name to a slot
    of a per-run frame and compiles each statement to a closure over
    that frame, so evaluation looks no name up.  Nothing outlives the
    run, and the executor's resolver is not shared.

    Dynamic checks: array accesses are bounds-checked, and LMAD-slice
    updates verify that their index sets are duplicate-free (the
    output-dependence check of section III-B).  A name nothing binds
    raises only when it is evaluated. *)

exception Runtime_error of string

val run : Ast.prog -> Value.t list -> Value.t list
(** Evaluate a program on argument values in parameter order.  Each
    parameter's annotated memory block is bound to a fresh memory token,
    so the memory passes' variants run too.
    @raise Runtime_error on arity/bounds/type violations. *)
