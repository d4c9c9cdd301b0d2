(** Fresh name generation.  All compiler passes assume binder names are
    unique program-wide; a {!supply} guarantees it with a counter.  No
    supply is shared by two programs: a builder owns one
    ([Build.fresh]), and a pass seeds its own with {!of_prog}. *)

type supply
(** A source of fresh names: [base_1], [base_2], ... for any bases. *)

val fresh : supply -> string -> string
(** [fresh s base] is [base ^ "_" ^ n] for the next number [n] of [s]. *)

val above : string list -> supply
(** A supply whose numbers start above the largest numeric suffix of
    any of [names] (at 1 if none has one), so it never draws one of
    them. *)

val of_prog : Ast.prog -> supply
(** {!above} every name [p] binds, annotates or takes as a parameter:
    a pass over [p] draws from it, so the names the pass adds depend
    on [p] alone, never on what the process drew before. *)

val base : string -> string
(** Strip a generated name back to its base. *)
