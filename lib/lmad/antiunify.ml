(* Anti-unification (least general generalization) of index functions
   (section IV-C).

   When the two branches of an [if] (or the initializer and body result
   of a [loop]) return arrays with different index functions, the
   pattern of the enclosing statement must bind a single index function
   valid for both.  The lgg keeps the components on which the two sides
   agree and replaces every disagreement with a fresh existential
   variable; the branches then additionally return the concrete values
   of those variables.

   Example (the paper's):
     lgg of  0 + {(n : m)(m : 1)}  and  0 + {(n : 1)(m : n)}
     is      0 + {(n : a)(m : b)}  with (a, b) = (m, 1) resp. (1, n). *)

module P = Symalg.Poly

type binding = {
  exist : string; (* the fresh existential variable *)
  left : P.t; (* its value in the left branch *)
  right : P.t; (* its value in the right branch *)
}

type result = { ixfn : Ixfn.t; bindings : binding list }

(* Anti-unify two polynomials: equal ones generalize to themselves,
   different ones to a fresh variable.  Reuses an existing binding when
   the same (left, right) pair was seen before, so e.g. two dimensions
   that differ in the same way share one existential. *)
let au_poly ~fresh bindings (p1 : P.t) (p2 : P.t) =
  if P.equal p1 p2 then (p1, bindings)
  else
    match
      List.find_opt
        (fun b -> P.equal b.left p1 && P.equal b.right p2)
        bindings
    with
    | Some b -> (P.var b.exist, bindings)
    | None ->
        let v = fresh "ext" in
        (P.var v, { exist = v; left = p1; right = p2 } :: bindings)

let au_lmad ~fresh bindings (l1 : Lmad.t) (l2 : Lmad.t) :
    (Lmad.t * binding list) option =
  if Lmad.rank l1 <> Lmad.rank l2 then None
  else
    let off, bindings =
      au_poly ~fresh bindings (Lmad.offset l1) (Lmad.offset l2)
    in
    let dims, bindings =
      List.fold_left2
        (fun (acc, bindings) d1 d2 ->
          let n, bindings = au_poly ~fresh bindings d1.Lmad.n d2.Lmad.n in
          let s, bindings = au_poly ~fresh bindings d1.Lmad.s d2.Lmad.s in
          (Lmad.dim n s :: acc, bindings))
        ([], bindings) (Lmad.dims l1) (Lmad.dims l2)
    in
    Some (Lmad.make off (List.rev dims), bindings)

(* Anti-unify two index functions.  Fails (None) when the chains have
   different lengths (the paper inserts copies to normalize in that
   case) or ranks disagree. *)
let ixfns ~fresh (t1 : Ixfn.t) (t2 : Ixfn.t) : result option =
  let c1 = Ixfn.chain t1 and c2 = Ixfn.chain t2 in
  if List.length c1 <> List.length c2 then None
  else
    let rec go bindings acc = function
      | [] -> Some (List.rev acc, bindings)
      | (l1, l2) :: rest -> (
          match au_lmad ~fresh bindings l1 l2 with
          | Some (l, bindings) -> go bindings (l :: acc) rest
          | None -> None)
    in
    match go [] [] (List.combine c1 c2) with
    | Some (chain, bindings) ->
        Some { ixfn = Ixfn.of_chain chain; bindings = List.rev bindings }
    | None -> None
