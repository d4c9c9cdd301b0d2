(* Dead-allocation cleanup.

   After short-circuiting, arrays that were rebased into their
   destination no longer reference the memory block originally
   allocated for them; the corresponding [EAlloc] statements are dead.
   Removing them realizes the paper's second motivation (section I):
   "decreasing memory footprint by placing semantically different
   arrays in the same memory blocks" - the footprint drop is visible in
   the executor's allocation counters and reported by the benchmark
   harness.

   A block is live when some memory annotation names it, or when its
   name occurs in any expression (memory values flow through loop
   parameters and branch results).  One walk visits every statement
   once: a compound statement contributes the names of its header
   (a loop's initializers and count, a mapnest's counts, an [if]'s
   condition), and the walk's recursion into its bodies contributes
   the rest.  Sub-block results are counted by *name*, not as free
   variables: an arm-local allocation returned as an [if]'s
   existential memory component is bound inside the arm, so it is not
   free in the conditional - but it is certainly live. *)

open Ir.Ast
module SS = Ir.Ast.SS

let res_vars (b : block) : SS.t =
  List.fold_left
    (fun acc a -> match a with Var v -> SS.add v acc | _ -> acc)
    SS.empty b.res

let rec live_blocks_block (b : block) : SS.t =
  List.fold_left
    (fun acc s ->
      let from_mem =
        List.fold_left
          (fun acc pe ->
            match pe.pmem with
            | Some m -> SS.add m.block acc
            | None -> acc)
          acc s.pat
      in
      let from_exp =
        match s.exp with
        | EAlloc _ -> from_mem (* binding, not a use *)
        | e -> SS.union from_mem (fv_exp_with (fun _ -> SS.empty) e)
      in
      let from_sub =
        match s.exp with
        | EMap { body; _ } -> SS.union (res_vars body) (live_blocks_block body)
        | ELoop { params; body; _ } ->
            let from_params =
              List.fold_left
                (fun acc (pe, init) ->
                  let acc =
                    match pe.pmem with
                    | Some m -> SS.add m.block acc
                    | None -> acc
                  in
                  match init with Var v -> SS.add v acc | _ -> acc)
                SS.empty params
            in
            SS.union from_params
              (SS.union (res_vars body) (live_blocks_block body))
        | EIf { tb; fb; _ } ->
            SS.union
              (SS.union (res_vars tb) (res_vars fb))
              (SS.union (live_blocks_block tb) (live_blocks_block fb))
        | _ -> SS.empty
      in
      SS.union from_exp from_sub)
    SS.empty b.stms

let rec strip_block cert live (b : block) : block * int =
  let removed = ref 0 in
  let stms =
    List.filter_map
      (fun s ->
        match (s.exp, s.pat) with
        | EAlloc _, [ pe ] when not (SS.mem pe.pv live) ->
            incr removed;
            (match cert with
            | Some r ->
                Certify.emit r
                  (Certify.Dead_removal { block = pe.pv })
                  (Certify.Unreferenced { name = pe.pv })
            | None -> ());
            None
        | _ ->
            let exp, r =
              match s.exp with
              | EMap m ->
                  let body, r = strip_block cert live m.body in
                  (EMap { m with body }, r)
              | ELoop l ->
                  let body, r = strip_block cert live l.body in
                  (ELoop { l with body }, r)
              | EIf i ->
                  let tb, r1 = strip_block cert live i.tb in
                  let fb, r2 = strip_block cert live i.fb in
                  (EIf { i with tb; fb }, r1 + r2)
              | e -> (e, 0)
            in
            removed := !removed + r;
            Some { s with exp })
      b.stms
  in
  ({ b with stms }, !removed)

(* Remove dead allocations; returns the cleaned program and how many
   allocations were eliminated. *)
let run ?cert (p : prog) : prog * int =
  let live = live_blocks_block p.body in
  (* block results and parameters may also carry memory *)
  let live =
    List.fold_left
      (fun acc pe ->
        match pe.pmem with Some m -> SS.add m.block acc | None -> acc)
      live p.params
  in
  let live =
    List.fold_left
      (fun acc a -> match a with Var v -> SS.add v acc | _ -> acc)
      live p.body.res
  in
  let body, removed = strip_block cert live p.body in
  ({ p with body }, removed)
