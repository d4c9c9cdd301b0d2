(* Allocation hoisting (section V, property 2).

   Short-circuiting requires the destination memory to be allocated (in
   scope) at the definition point of the candidate's fresh array.  This
   pass aggressively moves [EAlloc] statements - together with the pure
   scalar statements their sizes depend on - to the top of their block,
   and floats pure scalars out of if arms when computable outside.

   Allocations never leave their block here: loop bodies need a fresh
   block per iteration (double buffering, footnote 23), mapnest bodies
   are per-thread, and if-arm allocations are lifted only by Reuse's
   strategy 4, under certificates this blind pass cannot discharge. *)

open Ir.Ast
module SS = Ir.Ast.SS

(* A statement that may ride along with a hoisted alloc: pure, scalar,
   cheap to recompute. *)
let is_scalar_pure (s : stm) =
  match s.exp with
  | EIdx _ | EBin _ | EUn _ | ECmp _ | EAtom (Int _ | Float _ | Bool _) ->
      List.for_all (fun pe -> not (is_array_typ pe.pt)) s.pat
  | EAtom (Var _) ->
      List.for_all (fun pe -> pe.pt = TScalar I64) s.pat
  | _ -> false

let is_alloc (s : stm) = match s.exp with EAlloc _ -> true | _ -> false

let binders (s : stm) = SS.of_list (List.map (fun pe -> pe.pv) s.pat)

(* A moved statement's certificate: its definition still dominates its
   uses at the new position (checked on the post-pass program). *)
let cert_moved cert (s : stm) =
  match (cert, s.pat) with
  | Some r, pe :: _ ->
      Certify.emit r
        (Certify.Float_up { binding = pe.pv })
        (Certify.Dominance { binding = pe.pv })
  | _ -> ()

(* Stable partition of a block's statements into a hoistable prefix
   (allocs + their pure scalar dependency closure, in dependency order)
   and the rest. *)
let float_allocs_to_top cert (b : block) : block =
  let stms = b.stms in
  (* compute the set of variables needed by allocs, transitively through
     pure scalar statements *)
  let needed = ref SS.empty in
  List.iter (fun s -> if is_alloc s then needed := SS.union !needed (fv_stm s)) stms;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        if is_scalar_pure s && not (SS.is_empty (SS.inter (binders s) !needed))
        then
          let fv = fv_stm s in
          if not (SS.subset fv !needed) then (
            needed := SS.union !needed fv;
            changed := true))
      stms
  done;
  let hoisted, rest =
    List.partition
      (fun s ->
        is_alloc s
        || (is_scalar_pure s && not (SS.is_empty (SS.inter (binders s) !needed))))
      stms
  in
  (* Only statements that jumped over a kept statement actually moved. *)
  let seen_rest = ref false in
  List.iter
    (fun s ->
      if List.memq s rest then seen_rest := true
      else if !seen_rest then cert_moved cert s)
    stms;
  { b with stms = hoisted @ rest }

(* Float pure scalars out of an [if] arm when their free variables are
   all available in the enclosing scope.  Allocations stay inside the
   arm: an arm-local allocation is only lifted by {!Reuse}'s strategy 4,
   which proves the arm-local death and branch-size claims a blind
   extraction could not.  Returns the extracted statements and the
   reduced block. *)
let extract_hoistable cert ~outer_scope (b : block) : stm list * block =
  let rec go scope acc kept = function
    | [] -> (List.rev acc, List.rev kept)
    | s :: rest ->
        let movable =
          is_scalar_pure s
          &&
          let fv = fv_stm s in
          SS.subset fv outer_scope
          (* a statement whose deps were kept locally cannot move *)
          && SS.is_empty (SS.inter fv scope)
        in
        if movable then go scope (s :: acc) kept rest
        else go (SS.union scope (binders s)) acc (s :: kept) rest
  in
  let moved, kept = go SS.empty [] [] b.stms in
  List.iter (cert_moved cert) moved;
  (moved, { b with stms = kept })

let rec hoist_block cert ~scope (b : block) : block =
  (* First recurse, allowing nested hoists to surface here. *)
  let scope_ref = ref scope in
  let stms =
    List.concat_map
      (fun s ->
        let out =
          match s.exp with
          | ELoop ({ params; var; body; _ } as l) ->
              (* Allocations are NOT hoisted out of loop bodies: a loop
                 whose parameter carries the previous iteration's result
                 needs a fresh block per iteration (double buffering,
                 footnote 23); hoisting would alias input and output.
                 Within the body they still float to the top, which is
                 what property 2 of section V needs for circuit points
                 inside the iteration. *)
              let inner_scope =
                List.fold_left
                  (fun sc (pe, _) -> SS.add pe.pv sc)
                  (SS.add var !scope_ref) params
              in
              let body = hoist_block cert ~scope:inner_scope body in
              [ { s with exp = ELoop { l with params; body } } ]
          | EIf ({ tb; fb; _ } as i) ->
              let tb = hoist_block cert ~scope:!scope_ref tb in
              let fb = hoist_block cert ~scope:!scope_ref fb in
              let moved_t, tb =
                extract_hoistable cert ~outer_scope:!scope_ref tb
              in
              let moved_f, fb =
                extract_hoistable cert ~outer_scope:!scope_ref fb
              in
              moved_t @ moved_f @ [ { s with exp = EIf { i with tb; fb } } ]
          | EMap ({ nest; body } as m) ->
              (* do not hoist out of the parallel body; only normalize
                 within it *)
              let inner_scope =
                List.fold_left (fun sc (v, _) -> SS.add v sc) !scope_ref nest
              in
              let body = hoist_block cert ~scope:inner_scope body in
              [ { s with exp = EMap { m with body } } ]
          | _ -> [ s ]
        in
        List.iter (fun s -> scope_ref := SS.union !scope_ref (binders s)) out;
        out)
      b.stms
  in
  float_allocs_to_top cert { b with stms }

let hoist ?cert (p : prog) : prog =
  let scope = SS.of_list (List.map (fun pe -> pe.pv) p.params) in
  (* input arrays' memory blocks are in scope too *)
  let scope =
    List.fold_left
      (fun sc pe ->
        match pe.pmem with Some m -> SS.add m.block sc | None -> sc)
      scope p.params
  in
  { p with body = hoist_block cert ~scope p.body }
