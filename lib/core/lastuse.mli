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

    Sets are bitsets over the alias analysis's ids ({!Alias.id}).  Two
    passes visit each statement once each, whatever the nesting depth:
    a bottom-up pass computes every statement's alias-closed array uses
    from its array operands and its nested blocks' summaries, and a
    top-down pass assigns the last uses, each list in
    [String.compare] order. *)

val annotate : Ir.Ast.prog -> Alias.t
(** Annotate in place; returns the alias classes used. *)

val runs : unit -> int
(** {!annotate} calls since the last {!reset_counts}. *)

val visits : unit -> int
(** Statement visits since the last {!reset_counts}: two per statement
    and call, one in each pass. *)

val reset_counts : unit -> unit
