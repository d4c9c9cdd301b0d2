(** Last-use analysis (section V, footnote 18).

    Annotates each statement (its mutable [last_uses] field) with the
    arrays whose last use it is: after such a statement, neither the
    array nor anything in an alias relation with it is used on any
    execution path.  Uses inside compound statements count at the
    compound statement; arrays free in loop/mapnest bodies, and loop
    parameters, are conservatively alive throughout the body (another
    iteration may read them), while body-local arrays get precise
    in-body points (Fig. 5b's [as] is lastly used at [f as] inside the
    loop).

    Two passes visit each statement once each, whatever the nesting
    depth: a bottom-up pass computes every statement's alias-closed
    array uses from its free variables, and a top-down pass assigns
    the last uses. *)

val annotate : Ir.Ast.prog -> Alias.t
(** Annotate in place; returns the alias classes used. *)
