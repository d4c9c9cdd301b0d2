(* NW elaborated afresh from its source text ([Nw.source]) on every
   call: the complete paper pipeline from text, for the tests and the
   end-to-end benchmark's [nw-src] entry. *)

let prog () : Ir.Ast.prog = Frontend.Elab.compile_string ~ctx:Nw.ctx0 Nw.source
