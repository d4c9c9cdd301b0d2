(** Elaboration of the surface language into the core IR.

    Integer expressions over in-scope [i64] variables, constants and
    [+ - *] become index polynomials - the form the LMAD machinery can
    analyze; anything else (divisions, data-loaded values) is bound as
    an ordinary scalar whose opaque name then blocks the analysis,
    which is exactly the conservative behaviour of Fig. 1 (right).

    Statements come out in source order, each construct's operands left
    to right, and a [let] names the map, loop, if, slice, update or
    array builtin it binds: a program's text decides its IR, names
    included. *)

exception Elab_error of string

val compile_string : ?ctx:Symalg.Prover.t -> string -> Ir.Ast.prog
(** Parse ({!Parser.parse}) then elaborate into a checked IR program;
    [ctx] carries size assumptions for the short-circuiting analysis.
    @raise Elab_error on scope/shape violations. *)
