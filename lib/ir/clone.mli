(** Deep copies of programs.  Pattern elements carry mutable memory
    annotations, so in-place passes would otherwise leak changes into
    the caller's copy; the pipeline clones before annotating. *)

val clone_prog : Ast.prog -> Ast.prog
