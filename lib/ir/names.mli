(** Fresh name generation.  All compiler passes assume binder names are
    unique program-wide; [fresh] guarantees it with a counter. *)

val fresh : string -> string
(** [fresh base] is [base ^ "_" ^ counter]: the process-wide counter
    during program construction, the pass's own supply inside
    {!within}. *)

val within : Ast.prog -> (unit -> 'a) -> 'a
(** [within p f] runs a pass over [p]: every {!fresh} name [f] draws
    comes from a supply that starts at one plus the largest numeric
    suffix of any name in [p], so the names the pass adds depend on
    [p] alone, never on what the process drew before.  The
    process-wide counter is left as it was. *)

val base : string -> string
(** Strip a generated name back to its base. *)
