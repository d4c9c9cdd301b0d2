(* Proof-local binders: the variable a non-overlap query introduces
   for "another thread" or "a later iteration" of a nest or loop
   variable.  Each is named after the variable it stands for, joined
   by a character no IR or surface name contains, so the same question
   asked by another memlint stage, short-circuit round or certificate
   re-check is the same prover goal and meets the same memo entries. *)

module P = Symalg.Poly
module Pr = Symalg.Prover

let mentions ctx x =
  List.exists (fun (v, p) -> v = x || P.mem_var x p) (Pr.equalities ctx)
  || List.exists
       (fun (v, lo, hi) ->
         v = x
         || List.exists (P.mem_var x) (Option.to_list lo @ Option.to_list hi))
       (Pr.var_bounds ctx)

let name ~where tag v ctx sets =
  let b = tag ^ "#" ^ v in
  if
    mentions ctx b
    || List.exists (fun s -> List.mem b (Lmads.Refset.vars s)) sets
  then Fault.internal ~where "proof-local binder %s is already in use" b;
  b
