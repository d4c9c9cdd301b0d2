(* Memory-block reuse: coalesce allocations whose live ranges do not
   interfere (the companion optimization to short-circuiting).

   Short-circuiting removes copies but leaves every temporary its own
   [EAlloc]; the cost model charges each discrete allocation, and the
   arena never shrinks, so a loop that materializes a fresh buffer per
   iteration grows the footprint linearly in the trip count.  This pass
   runs after short-circuiting + cleanup and reclaims dead blocks with
   three strategies, in increasing order of specificity:

   1. *Dead existential chains*: a [mem, array] loop group whose memory
      component is referenced by no annotation anywhere (every array of
      the group was rebased into an enclosing block by
      short-circuiting) threads a block through the loop for nothing.
      The mem components - loop parameter, initializer atom, body
      result atom, outer pattern binder - are removed group-wise, which
      orphans the feeding [EAlloc] for {!Cleanup} to collect.  This is
      what eliminates NW's per-thread [b*b] scratch allocations.

   2. *Double-buffer rotation*: a loop that allocates a fresh block
      every iteration, writes the next generation into it, and returns
      it as its carried state ([loop (m, a) = ... do alloc; ...;
      in (m', a')]) only ever needs two physical buffers: the one
      holding the previous generation and a spare.  The rewrite hoists
      one spare allocation above the loop, threads it as a second
      carried [mem, array] group, and rotates the two groups in the
      body's result, dropping the per-iteration allocation.  Peak
      footprint falls from [trip * size] to [2 * size] (Hotspot's and
      LBM's time-stepping loops).

   3. *Same-scope coalescing*: within one lexical block, a later
      allocation [L] may rebind into an earlier allocation [E] whose
      live range ended before [L]'s began, provided [E]'s symbolic size
      dominates [L]'s.  Interference is live-range overlap over the
      statement index order; liveness of a block is the span from its
      allocation to the last statement referencing any array annotated
      into it (computed from the same last-use/alias machinery the
      short-circuiting pass uses, with every free array variable mapped
      through its annotation).  Size domination is discharged by
      {!Symalg.Prover.prove_ge} on the resolved allocation sizes, or
      failing that by proving every rebased annotation's LMAD footprint
      ({!Lmads.Lmad.bounds}) fits in [0, size E).

   Safety is verified from both sides: {!Memlint}'s [reuse] rule
   rejects any coalescing whose live ranges actually overlap, and
   {!Memtrace}'s dead-contents/revive checks replay traced executions
   of the reused program.  The pass mutates its input (annotations are
   mutable); {!Pipeline.compile} hands it a private clone. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module SM = Map.Make (String)
module SS = Ir.Ast.SS

(* ---------------------------------------------------------------- *)
(* Options and statistics                                            *)
(* ---------------------------------------------------------------- *)

type options = { verbose : bool }

let default_options = { verbose = false }

type stats = {
  mutable candidates : int; (* (earlier, later) alloc pairs examined *)
  mutable coalesced : int; (* later allocs rebound into earlier blocks *)
  mutable size_proofs : int; (* prover obligations discharged *)
  mutable chain_links : int; (* dead existential mem positions removed *)
  mutable rotated : int; (* loops rewritten to double-buffering *)
  mutable hoisted : int; (* allocations lifted out of loop bodies *)
}

let fresh_stats () =
  {
    candidates = 0;
    coalesced = 0;
    size_proofs = 0;
    chain_links = 0;
    rotated = 0;
    hoisted = 0;
  }

let pp_stats ppf (s : stats) =
  Report.section ~title:"memory reuse" ppf
    [
      ( "coalesced",
        Fmt.str "%d of %d candidate pairs" s.coalesced s.candidates );
      ("size-domination proofs", string_of_int s.size_proofs);
      ("dead chain links removed", string_of_int s.chain_links);
      ("loops double-buffered", string_of_int s.rotated);
      ("allocations hoisted across scopes", string_of_int s.hoisted);
    ]

let trace opts fmt =
  if opts.verbose then Fmt.epr (fmt ^^ "@.") else Fmt.kstr (fun _ -> ()) fmt

(* Rename block [oldm] to [newm] in every annotation of a statement
   subtree (annotations are the only legitimate occurrences the
   coalescer allows, so exps need no rewriting).  Whether anything was
   renamed; the free-variable memo [fv] forgets every statement whose
   subtree was. *)
let rename_pe oldm newm pe =
  match pe.pmem with
  | Some mi when mi.block = oldm ->
      pe.pmem <- Some { mi with block = newm };
      true
  | _ -> false

let rec rename_annots_stm fv oldm newm (s : stm) : bool =
  let renamed pes =
    List.fold_left (fun c pe -> rename_pe oldm newm pe || c) false pes
  in
  let here = renamed s.pat in
  let changed =
    (match s.exp with
    | EMap { body; _ } -> rename_annots_block fv oldm newm body
    | ELoop { params; body; _ } ->
        let p = renamed (List.map fst params) in
        rename_annots_block fv oldm newm body || p
    | EIf { tb; fb; _ } ->
        let t = rename_annots_block fv oldm newm tb in
        rename_annots_block fv oldm newm fb || t
    | _ -> false)
    || here
  in
  if changed then fv_memo_forget fv s;
  changed

and rename_annots_block fv oldm newm (b : block) : bool =
  List.fold_left (fun c s -> rename_annots_stm fv oldm newm s || c) false b.stms

(* Rename every reference to mem block [oldm] - annotations *and*
   expression-position atoms (loop-carried mem initializers, block
   results) - to [newm] within a subtree.  Used when an [if] arm's
   allocation is absorbed by its partner in the other arm; names are
   globally unique, so the rewrite is total. *)
let rec rename_var_stm oldm newm (s : stm) : stm =
  List.iter (fun pe -> ignore (rename_pe oldm newm pe)) s.pat;
  let ratom = function Var v when v = oldm -> Var newm | a -> a in
  let exp =
    match s.exp with
    | EMap ({ body; _ } as m) ->
        EMap { m with body = rename_var_block oldm newm body }
    | ELoop ({ params; body; _ } as l) ->
        let params =
          List.map
            (fun (pe, init) ->
              ignore (rename_pe oldm newm pe);
              (pe, ratom init))
            params
        in
        ELoop { l with params; body = rename_var_block oldm newm body }
    | EIf ({ tb; fb; _ } as i) ->
        EIf
          {
            i with
            tb = rename_var_block oldm newm tb;
            fb = rename_var_block oldm newm fb;
          }
    | EAtom a -> EAtom (ratom a)
    | e -> e
  in
  { s with exp }

and rename_var_block oldm newm (b : block) : block =
  {
    stms = List.map (rename_var_stm oldm newm) b.stms;
    res = List.map (function Var v when v = oldm -> Var newm | a -> a) b.res;
  }

(* Does mem block [name], allocated inside an [if] arm, escape the arm
   in expression position?  One relaxation over a bare
   [exp_vars_block] membership test: memintro threads an arm-local
   block through an enclosing loop as the initializer of a
   loop-carried *mem* parameter, an occurrence that merely hands the
   block's identity to the loop.  Such an initializer is benign iff
   the loop's mem result binder at the same tuple position is itself
   clean - no expression-position occurrence in the arm, in
   particular not among the arm's results - so the chain ends inside
   the arm.  Any other occurrence (operand, non-mem initializer, arm
   result) is an escape. *)
let arm_block_escapes (arm : block) name : bool =
  let chain = ref [] in
  let rec stm_occ (s : stm) : bool =
    match s.exp with
    | ELoop { params; body; _ } ->
        let hard = ref false in
        List.iteri
          (fun j ((pe : pat_elem), init) ->
            match init with
            | Var v when v = name ->
                if pe.pt = TMem then (
                  match List.nth_opt s.pat j with
                  | Some (q : pat_elem) -> chain := q.pv :: !chain
                  | None -> hard := true)
                else hard := true
            | _ -> ())
          params;
        !hard || block_occ body
    | EMap { body; _ } -> block_occ body
    | EIf { cond; tb; fb } ->
        (match cond with Var v -> v = name | _ -> false)
        || block_occ tb || block_occ fb
    | e -> SS.mem name (Facts.exp_vars e SS.empty)
  and block_occ (b : block) : bool =
    List.exists stm_occ b.stms
    || List.exists (function Var v -> v = name | _ -> false) b.res
  in
  block_occ arm
  ||
  let all = Facts.exp_vars_block arm SS.empty in
  List.exists (fun r -> SS.mem r all) !chain

(* Every annotation into block [blk] anywhere in a subtree (pattern
   elements and loop parameters, nested bodies included) - the full
   set that [rename_annots_stm] would move - each paired with the
   prover context extended by the iteration-space ranges of the
   enclosing map/loop nests inside the subtree, so bounds of
   index-dependent footprints ([9*i*n + 9*j + {(9 : 1)}] under a
   mapnest) can be discharged.  Nest counts resolve through [sc]'s
   scalar table alone, not through definitions inside the subtree. *)
let annots_into sc blk (b : block) : (string * mem_info * Pr.t) list =
  let acc = ref [] in
  let rec go sc (b : block) =
    List.iter
      (fun (s : stm) ->
        List.iter
          (fun pe ->
            match pe.pmem with
            | Some mi when mi.block = blk ->
                acc := (pe.pv, mi, sc.Facts.ctx) :: !acc
            | _ -> ())
          (Facts.binders s);
        let inner = Facts.enter sc s in
        match s.exp with
        | EMap { body; _ } | ELoop { body; _ } -> go inner body
        | EIf { tb; fb; _ } ->
            go inner tb;
            go inner fb
        | _ -> ())
      b.stms
  in
  go sc b;
  !acc

(* ---------------------------------------------------------------- *)
(* Strategy 1: dead existential chain removal                        *)
(* ---------------------------------------------------------------- *)

(* A loop's [mem] position is dead when neither the parameter nor the
   outer pattern binder is referenced by any annotation or any
   expression occurrence outside the chain's own structure (the
   initializer atom feeding it and the body result atom returning it).
   Removing the position group-wise - parameter, initializer, body
   result atom, outer binder - makes the feeding allocation dead too.

   Occurrence classification: walking the program, an atom at the
   initializer of a TMem parameter or at a TMem position of a loop
   body's result is *structural*; every other occurrence is *hard*.
   Structural occurrences disappear exactly when their position is
   removed, so candidacy is computed to a fixpoint: a name referenced
   from a position that will *not* be removed is evicted, which may
   block further positions, and so on. *)

type chain_occ = {
  co_loop : stm; (* the loop statement *)
  co_idx : int; (* position index within params/pat/body.res *)
  co_name : string; (* the referenced name (init or res atom) *)
}

let chain_analysis (p : prog) =
  (* annotation-referenced blocks, TMem binder inventory, hard
     occurrences, structural occurrences *)
  let annot = ref SS.empty in
  let hard = ref SS.empty in
  let structural : chain_occ list ref = ref [] in
  let mem_binders = ref SS.empty in
  let note_pe pe =
    match pe.pmem with
    | Some mi -> annot := SS.add mi.block !annot
    | None -> ()
  in
  let note_atom_hard = function
    | Var v -> hard := SS.add v !hard
    | _ -> ()
  in
  let rec go_stm (s : stm) =
    List.iter note_pe s.pat;
    (match s.exp with
    | ELoop { params; body; _ } ->
        List.iteri
          (fun i (pe, init) ->
            note_pe pe;
            if pe.pt = TMem then begin
              mem_binders := SS.add pe.pv !mem_binders;
              (match init with
              | Var v ->
                  structural := { co_loop = s; co_idx = i; co_name = v } :: !structural
              | _ -> ());
              (* the outer binder for this position *)
              match List.nth_opt s.pat i with
              | Some q when q.pt = TMem ->
                  mem_binders := SS.add q.pv !mem_binders
              | _ -> ()
            end
            else note_atom_hard init)
          params;
        List.iter go_stm body.stms;
        List.iteri
          (fun i a ->
            let structural_pos =
              match List.nth_opt params i with
              | Some (pe, _) -> pe.pt = TMem
              | None -> false
            in
            if structural_pos then (
              match a with
              | Var v ->
                  structural := { co_loop = s; co_idx = i; co_name = v } :: !structural
              | _ -> ())
            else note_atom_hard a)
          body.res
    | EMap { body; _ } ->
        List.iter go_stm body.stms;
        List.iter note_atom_hard body.res
    | EIf { cond; tb; fb } ->
        (* An [if] forwards each arm's TMem result into its own TMem
           binder - existential plumbing exactly like a loop's mem
           positions, so an atom at such a position is structural and
           the chain can continue through the conditional.  Non-mem
           positions stay hard. *)
        note_atom_hard cond;
        List.iter
          (fun (q : pat_elem) ->
            if q.pt = TMem then mem_binders := SS.add q.pv !mem_binders)
          s.pat;
        let arm_res (b : block) =
          List.iteri
            (fun i a ->
              let structural_pos =
                match List.nth_opt s.pat i with
                | Some (q : pat_elem) -> q.pt = TMem
                | None -> false
              in
              if structural_pos then (
                match a with
                | Var v ->
                    structural :=
                      { co_loop = s; co_idx = i; co_name = v } :: !structural
                | _ -> ())
              else note_atom_hard a)
            b.res
        in
        List.iter go_stm tb.stms;
        arm_res tb;
        List.iter go_stm fb.stms;
        arm_res fb
    | EAlloc _ -> (
        match s.pat with
        | [ pe ] when pe.pt = TMem -> mem_binders := SS.add pe.pv !mem_binders
        | _ -> ())
    | e ->
        SS.iter
          (fun v -> hard := SS.add v !hard)
          (Facts.exp_vars e SS.empty));
    ()
  in
  List.iter note_pe p.params;
  List.iter go_stm p.body.stms;
  List.iter (fun a -> note_atom_hard a) p.body.res;
  (!annot, !hard, !structural, !mem_binders)

let remove_dead_chains (st : stats) opts cert (p : prog) : prog =
  let annot, hard, structural, mem_binders = chain_analysis p in
  let candidates =
    ref (SS.diff mem_binders (SS.union annot hard))
  in
  (* a loop position is removable iff both its parameter and its outer
     binder are candidates; an [if] position (which has no parameter)
     iff its TMem binder is one *)
  let removable_pos (s : stm) i =
    match s.exp with
    | ELoop { params; _ } -> (
        match (List.nth_opt params i, List.nth_opt s.pat i) with
        | Some (pe, _), Some q ->
            SS.mem pe.pv !candidates && SS.mem q.pv !candidates
        | _ -> false)
    | EIf _ -> (
        match List.nth_opt s.pat i with
        | Some q -> q.pt = TMem && SS.mem q.pv !candidates
        | _ -> false)
    | _ -> false
  in
  (* evict names referenced from positions that will survive *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun occ ->
        if (not (removable_pos occ.co_loop occ.co_idx))
           && SS.mem occ.co_name !candidates
        then begin
          candidates := SS.remove occ.co_name !candidates;
          changed := true
        end)
      structural
  done;
  if SS.is_empty !candidates then p
  else begin
    let filter_pos (s : stm) (l : stm list) : stm list =
      match s.exp with
      | ELoop ({ params; body; _ } as lp) ->
          let keep = Array.make (List.length params) true in
          List.iteri
            (fun i (pe, _) ->
              if removable_pos s i then begin
                keep.(i) <- false;
                st.chain_links <- st.chain_links + 1;
                let loop_binding =
                  match s.pat with pe :: _ -> pe.pv | [] -> "?"
                in
                (match cert with
                | None -> ()
                | Some r ->
                    let names =
                      pe.pv
                      ::
                      (match List.nth_opt s.pat i with
                      | Some q -> [ q.pv ]
                      | None -> [])
                    in
                    Certify.emit r
                      (Certify.Chain_removal { loop_binding; position = i })
                      (Certify.Dead_mem { names }));
                trace opts "reuse: dropping dead mem chain position %d of loop %s"
                  i loop_binding
              end)
            params;
          if Array.for_all Fun.id keep then l @ [ s ]
          else
            let sel xs =
              List.filteri (fun i _ -> i >= Array.length keep || keep.(i)) xs
            in
            let params' = sel params in
            let res' = sel body.res in
            let pat' = sel s.pat in
            l
            @ [
                {
                  s with
                  pat = pat';
                  exp = ELoop { lp with params = params'; body = { body with res = res' } };
                };
              ]
      | EIf ({ tb; fb; _ } as ifr) ->
          let keep = Array.make (List.length s.pat) true in
          List.iteri
            (fun i (q : pat_elem) ->
              if removable_pos s i then begin
                keep.(i) <- false;
                st.chain_links <- st.chain_links + 1;
                let loop_binding =
                  match s.pat with pe :: _ -> pe.pv | [] -> "?"
                in
                (match cert with
                | None -> ()
                | Some r ->
                    Certify.emit r
                      (Certify.Chain_removal { loop_binding; position = i })
                      (Certify.Dead_mem { names = [ q.pv ] }));
                trace opts
                  "reuse: dropping dead mem chain position %d of if %s" i
                  loop_binding
              end)
            s.pat;
          if Array.for_all Fun.id keep then l @ [ s ]
          else
            let sel xs =
              List.filteri (fun i _ -> i >= Array.length keep || keep.(i)) xs
            in
            l
            @ [
                {
                  s with
                  pat = sel s.pat;
                  exp =
                    EIf
                      {
                        ifr with
                        tb = { tb with res = sel tb.res };
                        fb = { fb with res = sel fb.res };
                      };
                };
              ]
      | _ -> l @ [ s ]
    in
    let rewrite (b : block) : block =
      { b with stms = List.fold_left (fun l s -> filter_pos s l) [] b.stms }
    in
    (* apply to every lexical block, innermost first, then the top *)
    let body = map_blocks_block rewrite p.body in
    { p with body = rewrite body }
  end

(* ---------------------------------------------------------------- *)
(* Strategy 2: double-buffer rotation                                *)
(* ---------------------------------------------------------------- *)

(* Recognize [loop (m : mem, a @ m) = (im, ia) for v < n do
     let rm : mem = alloc s in ... let ra @ rm = ... in (rm, ra)]
   where the fresh allocation's size is loop-invariant, the trip count
   is provably positive, and neither the initializer array nor its
   block is referenced after the loop (iteration 2 clobbers it).  The
   rewrite threads one hoisted spare as a second carried group and
   rotates the groups in the result, so generation [i+1] overwrites
   generation [i-1]'s (dead) buffer.

   From iteration 2 on the renamed writes land in the *initializer's*
   buffer, whose allocation the loop never sees, so the rewrite owes a
   proof that the buffer can hold everything [rename_annots_stm] moves
   into it.  Three ways to discharge it, any one suffices:

   - the fresh block's only annotated occupant is the carried result
     itself with the carried array's own index function, which the
     initializer buffer demonstrably holds (it fed that very footprint
     into iteration 1);
   - the initializer block's allocation size provably dominates the
     per-iteration size [s] ([alloc_sizes] carries every [EAlloc] in
     scope);
   - the initializer is opaque (a program parameter, say) but every
     annotation moving into it has memory-LMAD bounds inside the
     carried footprint's own address range [0, hi] - addresses the
     buffer provably contains, because an allocation is contiguous
     from 0 and the carried footprint reaches [hi] (the
     short-circuited concat-piece layout: top/mid/bot at offsets
     within the full array). *)

let try_rotate (st : stats) opts cert names ({ Facts.ctx; scalars; _ } as sc)
    ~fv ~alloc_sizes ~tail_refs (s : stm) : stm list option =
  match (s.exp, s.pat) with
  | ( ELoop { params = [ (pm, Var im); (pa, Var ia) ]; var; bound; body },
      [ qm; qa ] )
    when pm.pt = TMem && qm.pt = TMem -> (
      let annotated_into blk pe =
        match pe.pmem with Some mi -> mi.block = blk | None -> false
      in
      match (pa.pmem, qa.pmem, body.res) with
      | Some pmi, Some _, [ Var rm; Var ra ]
        when annotated_into pm.pv pa && annotated_into qm.pv qa ->
          (* the fresh per-iteration allocation *)
          let alloc_size =
            List.find_map
              (fun bs ->
                match (bs.pat, bs.exp) with
                | [ pe ], EAlloc sz when pe.pv = rm -> Some sz
                | _ -> None)
              body.stms
          in
          let ra_in_rm =
            List.exists
              (fun bs -> List.exists (fun pe -> pe.pv = ra && annotated_into rm pe) bs.pat)
              body.stms
          in
          let body_bound =
            List.fold_left
              (fun acc bs ->
                List.fold_left (fun acc pe -> SS.add pe.pv acc) acc bs.pat)
              (SS.of_list [ var; pm.pv; pa.pv ])
              body.stms
          in
          let body_fv = fv_block_with (fv_memo_stm fv) body in
          (* the fresh block must have no expression-position use in the
             body (e.g. feeding an inner existential loop): annotations
             are all the rewrite renames *)
          let body_exp_vars =
            List.fold_left
              (fun acc bs -> Facts.exp_vars bs.exp acc)
              SS.empty body.stms
          in
          let size_proof = ref None in
          (match alloc_size with
          | Some sz
            when ra_in_rm
                 && (not (SS.mem rm body_exp_vars))
                 && SS.is_empty (SS.inter (SS.of_list (P.vars sz)) body_bound)
                 && (not (SS.mem ia body_fv))
                 && (not (SS.mem im body_fv))
                 && (not (SS.mem ia tail_refs))
                 && (not (SS.mem im tail_refs))
                 && Pr.prove_ge ctx (Facts.resolve scalars bound) P.one
                 && (* size obligation for the redirected writes *)
                 (let rm_annots = annots_into sc rm body in
                  let sole_carried_occupant =
                    rm_annots <> []
                    && List.for_all
                         (fun (v, mi, _) ->
                           v = ra && Ixfn.equal mi.ixfn pmi.ixfn)
                         rm_annots
                  in
                  let init_size_dominates () =
                    match SM.find_opt im alloc_sizes with
                    | Some size_im
                      when Pr.prove_ge ctx
                             (Facts.resolve scalars size_im)
                             (Facts.resolve scalars sz) ->
                        st.size_proofs <- st.size_proofs + 1;
                        size_proof := Some (`Init size_im);
                        true
                    | _ -> false
                  in
                  let fits_carried_footprint () =
                    match
                      Lmad.bounds ctx
                        (Facts.resolve_lmad scalars
                           (Facts.memory_lmad pmi.ixfn))
                    with
                    | None -> false
                    | Some (_, hi_c) ->
                        let fits (_, (mi : mem_info), actx) =
                          match
                            Lmad.bounds actx
                              (Facts.resolve_lmad scalars
                                 (Facts.memory_lmad mi.ixfn))
                          with
                          | None -> false
                          | Some (lo, hi) ->
                              Pr.prove_in_range actx lo ~lo:P.zero ~hi:hi_c
                              && Pr.prove_in_range actx hi ~lo:P.zero ~hi:hi_c
                        in
                        let ok =
                          rm_annots <> [] && List.for_all fits rm_annots
                        in
                        if ok then begin
                          st.size_proofs <- st.size_proofs + 1;
                          size_proof := Some (`Fits (hi_c, rm_annots))
                        end;
                        ok
                  in
                  (sole_carried_occupant
                  &&
                  (size_proof := Some `Sole;
                   true))
                  || init_size_dominates ()
                  || fits_carried_footprint ()
                  ||
                  (trace opts
                     "reuse: not rotating %s: cannot prove the initializer \
                      block %s holds the per-iteration footprint"
                     qa.pv im;
                   false)) ->
              st.size_proofs <- st.size_proofs + 1;
              (* hoisted spare buffer *)
              let smem = Ir.Names.fresh names (pm.pv ^ "_spare") in
              let sarr = Ir.Names.fresh names (pa.pv ^ "_spare") in
              let elt, shape =
                match pa.pt with
                | TArr (elt, shape) -> (elt, shape)
                | _ ->
                    Fault.internal ~where:"Reuse.try_rotate"
                      "rotation candidate %s is not an array" pa.pv
              in
              let alloc_stm = stm [ pat_elem smem TMem ] (EAlloc sz) in
              let scratch_stm =
                stm
                  [ pat_elem ~mem:{ block = smem; ixfn = pmi.ixfn } sarr pa.pt ]
                  (EScratch (elt, shape))
              in
              (* second carried group *)
              let psm = pat_elem (Ir.Names.fresh names (pm.pv ^ "_rot")) TMem in
              let psa =
                pat_elem
                  ~mem:{ block = psm.pv; ixfn = pmi.ixfn }
                  (Ir.Names.fresh names (pa.pv ^ "_rot"))
                  pa.pt
              in
              (* generation i+1 now writes into the spare *)
              ignore (rename_annots_block fv rm psm.pv body);
              let body' =
                {
                  body with
                  res = [ Var psm.pv; Var ra; Var pm.pv; Var pa.pv ];
                }
              in
              let q2m = pat_elem (Ir.Names.fresh names (qm.pv ^ "_rot")) TMem in
              let q2a =
                pat_elem
                  ~mem:
                    {
                      block = q2m.pv;
                      ixfn =
                        (match qa.pmem with
                        | Some mi -> mi.ixfn
                        | None -> pmi.ixfn);
                    }
                  (Ir.Names.fresh names (qa.pv ^ "_rot"))
                  pa.pt
              in
              let loop' =
                {
                  s with
                  pat = [ qm; qa; q2m; q2a ];
                  exp =
                    ELoop
                      {
                        params =
                          [
                            (pm, Var im);
                            (pa, Var ia);
                            (psm, Var smem);
                            (psa, Var sarr);
                          ];
                        var;
                        bound;
                        body = body';
                      };
                }
              in
              st.rotated <- st.rotated + 1;
              (match cert with
              | None -> ()
              | Some r ->
                  let rw =
                    Certify.Rotation
                      {
                        loop_binding = qa.pv;
                        init_block = im;
                        init_arr = ia;
                        spare_block = smem;
                      }
                  in
                  Certify.emit r rw ~ctx
                    (Certify.Size_ge
                       {
                         larger = Facts.resolve scalars bound;
                         smaller = P.one;
                       });
                  Certify.emit r rw
                    (Certify.Dead_after { names = [ im; ia ]; binding = qa.pv });
                  (match !size_proof with
                  | Some `Sole ->
                      Certify.emit r rw
                        (Certify.Sole_occupant
                           { block = psm.pv; ixfn = pmi.ixfn })
                  | Some (`Init size_im) ->
                      Certify.emit r rw ~ctx
                        (Certify.Size_ge
                           {
                             larger = Facts.resolve scalars size_im;
                             smaller = Facts.resolve scalars sz;
                           })
                  | Some (`Fits (hi_c, rm_annots)) ->
                      List.iter
                        (fun (_, (mi : mem_info), actx) ->
                          Certify.emit r rw ~ctx:actx
                            (Certify.Bounds_in
                               {
                                 lmad =
                                   Facts.resolve_lmad scalars
                                     (Facts.memory_lmad mi.ixfn);
                                 lo = P.zero;
                                 hi = hi_c;
                               }))
                        rm_annots
                  | None -> ()));
              trace opts "reuse: double-buffered loop %s (spare %s)" qa.pv smem;
              Some [ alloc_stm; scratch_stm; loop' ]
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Strategy 3: same-scope coalescing                                 *)
(* ---------------------------------------------------------------- *)

(* Per lexical block: statement-indexed live ranges, a greedy first-fit
   over allocation order.  [mems] maps every array variable in scope to
   its (annotation) block, so a free variable occurrence extends its
   block's range even when the block name itself does not appear. *)

let coalesce_block (st : stats) opts cert { Facts.ctx; scalars; mems } ~fv
    ~refs (b : block) : unit =
  let stms = Array.of_list b.stms in
  let n = Array.length stms in
  let escape = Facts.res_refs mems b in
  (* names with expression-position occurrences anywhere in this block
     are structurally load-bearing (loop-carried mems etc.) *)
  let hard = Facts.exp_vars_block b SS.empty in
  (* annotations into [blk] from statement [from] on, nested ones
     included, last first: the footprint-fit fallback checks them and
     the coalesce obligation records their arrays *)
  let annots_from from blk =
    List.fold_left
      (fun acc (pe : pat_elem) ->
        match pe.pmem with
        | Some mi when mi.block = blk -> (pe.pv, mi) :: acc
        | _ -> acc)
      []
      (List.concat_map Facts.binders
         (all_stms_block
            { stms = List.filteri (fun i _ -> i >= from) b.stms; res = [] }))
  in
  let last_ref blk =
    let last = ref (-1) in
    Array.iteri (fun i r -> if SS.mem blk r then last := i) refs;
    !last
  in
  (* A block's live interval starts at its first reference - the first
     array bound into it - not at its [EAlloc], which hoisting has
     moved to the top of the block.  (The alloc statement itself never
     references the block: the pattern binds it and carries no
     annotation.) *)
  let first_ref blk =
    let first = ref max_int in
    Array.iteri (fun i r -> if SS.mem blk r && i < !first then first := i) refs;
    !first
  in
  let size_dominates sizee sizel blk_l =
    let se = Facts.resolve scalars sizee
    and sl = Facts.resolve scalars sizel in
    if Pr.prove_ge ctx se sl then begin
      st.size_proofs <- st.size_proofs + 1;
      Some (`Ge (se, sl))
    end
    else
      (* fallback: every annotation moving into E stays in [0, size E) *)
      let fits mi =
        match
          Lmad.bounds ctx
            (Facts.resolve_lmad scalars (Facts.memory_lmad mi.ixfn))
        with
        | None -> false
        | Some (lo, hi) ->
            Pr.prove_in_range ctx lo ~lo:P.zero ~hi:(P.sub se P.one)
            && Pr.prove_in_range ctx hi ~lo:P.zero ~hi:(P.sub se P.one)
      in
      let annots = List.map snd (annots_from 0 blk_l) in
      if annots <> [] && List.for_all fits annots then begin
        st.size_proofs <- st.size_proofs + 1;
        Some (`Fits (se, annots))
      end
      else None
  in
  (* allocations in statement order *)
  let allocs = ref [] in
  Array.iteri
    (fun i s ->
      match (s.pat, s.exp) with
      | [ pe ], EAlloc sz when pe.pt = TMem -> allocs := (i, pe.pv, sz) :: !allocs
      | _ -> ())
    stms;
  let allocs = List.rev !allocs in
  (* greedy first-fit: earlier blocks are targets; [t_last] tracks the
     merged live range *)
  let targets : (int * string * idx * int ref) list ref = ref [] in
  List.iter
    (fun (di, l, sz_l) ->
      let l_first = first_ref l in
      if (not (SS.mem l hard)) && (not (SS.mem l escape)) && l_first < max_int
      then begin
        let l_last = last_ref l in
        let rec fit = function
          | [] ->
              targets := !targets @ [ (di, l, sz_l, ref l_last) ]
          | (ei, e, sz_e, e_last) :: rest -> (
              st.candidates <- st.candidates + 1;
              let proof =
                if
                  ei < di && !e_last < l_first
                  && (not (SS.mem e escape))
                  (* a block in expression position (a loop initializer,
                     say) may be aliased by existential results whose
                     liveness the reference scan cannot see: never a
                     target *)
                  && not (SS.mem e hard)
                then size_dominates sz_e sz_l l
                else None
              in
              match proof with
              | Some proof ->
                  let movers =
                    match cert with
                    | Some _ -> List.rev_map fst (annots_from di l)
                    | None -> []
                  in
                  (* rebind L's annotations into E from L's definition on *)
                  for i = di to n - 1 do
                    ignore (rename_annots_stm fv l e stms.(i))
                  done;
                  e_last := max !e_last l_last;
                  st.coalesced <- st.coalesced + 1;
                  (match cert with
                  | None -> ()
                  | Some r ->
                      let rw = Certify.Coalesce { earlier = e; later = l } in
                      Certify.emit r rw ~ctx
                        (Certify.Live_disjoint
                           { earlier = e; later = l; movers });
                      (match proof with
                      | `Ge (se, sl) ->
                          Certify.emit r rw ~ctx
                            (Certify.Size_ge { larger = se; smaller = sl })
                      | `Fits (se, annots) ->
                          List.iter
                            (fun (mi : mem_info) ->
                              Certify.emit r rw ~ctx
                                (Certify.Bounds_in
                                   {
                                     lmad =
                                       Facts.resolve_lmad scalars
                                         (Facts.memory_lmad mi.ixfn);
                                     lo = P.zero;
                                     hi = P.sub se P.one;
                                   }))
                            annots));
                  trace opts "reuse: coalesced block %s into %s" l e
              | None -> fit rest)
        in
        fit !targets
      end
      else targets := !targets @ [ (di, l, sz_l, ref (last_ref l)) ])
    allocs

(* ---------------------------------------------------------------- *)
(* Strategy 4: cross-scope hoisting                                  *)
(* ---------------------------------------------------------------- *)

(* A sequential loop body that allocates a fresh temporary every
   iteration pays [trip] allocations for contents that never survive
   the iteration.  When the block is (a) not structurally load-bearing
   in the body (no expression-position occurrence: not loop-carried,
   not an existential result) and (b) not the home of any array the
   body returns, every iteration's instance is dead by the iteration's
   end, so a single allocation hoisted in front of the loop serves all
   of them.  The hoisted block then lives in the parent scope, where
   strategy 3 may coalesce it with temporaries hoisted from *sibling*
   loops whose statement-level live intervals are disjoint - the
   cross-scope sharing this pass exists to enable.  (Allocations are
   never hoisted out of a mapnest: an in-kernel allocation is
   per-thread scratch, and all threads' instances are live at once.)

   The hoisted size must dominate every iteration's request:
   - a loop-invariant size (no body-bound variables left after
     resolving body-local scalar definitions) hoists as-is;
   - a size depending only on the loop variable [v] hoists as
     [sz[v:=0]], provided the prover shows [sz[v:=0] >= sz] for all
     [v] in [0, bound) (the shrinking-interior pattern); the
     obligation counts as a size-domination proof.

   The pass also hoists through [if] arms.  An allocation local to an
   arm - no expression-position occurrence inside the arm, not the
   home of anything the arm returns, size computable above the [if] -
   is dead by the arm's end, so its allocation may lift above the
   conditional:
   - *paired*: when both arms hold such an allocation, the prover
     compares the two sizes; the dominating one lifts above the [if]
     and the other arm's block is renamed into it (1 -> 1 executed
     allocations per branch taken, always profitable);
   - *single-arm*: an unpaired candidate lifts only when the [if]
     sits inside a sequential loop body, where the subsequent
     loop-level hoist amortizes the (at most one) extra allocation
     across the trip count.
   Lifted blocks land in the enclosing scope, in front of the [if],
   where the loop-level hoist above and sibling coalescing can pick
   them up.  Each lift is certified: an
   {!constructor:Certify.claim.Dies_in_arm} claim per arm-local block
   and a branch-wise {!constructor:Certify.claim.Size_ge} for the
   dominating size. *)

let hoist_allocs (st : stats) opts cert (p0 : prog) : prog =
  let rec go_stm ~in_loop ({ Facts.ctx; scalars; _ } as sc) (s : stm) :
      stm list =
    match s.exp with
    | EMap _ -> [ Facts.map_sub_blocks (go_block ~in_loop:false) sc s ]
    | ELoop ({ var; body; params; _ } as lp) ->
        let sc_body = Facts.enter sc s in
        let ctx' = sc_body.ctx in
        let body = go_block ~in_loop:true sc_body body in
        let bscalars = Facts.add_scalars scalars body.stms in
        let bound_names =
          List.fold_left
            (fun acc (bs : stm) ->
              List.fold_left (fun acc pe -> SS.add pe.pv acc) acc bs.pat)
            (List.fold_left
               (fun acc (pe, _) -> SS.add pe.pv acc)
               (SS.singleton var) params)
            body.stms
        in
        let hard = Facts.exp_vars_block body SS.empty in
        let mems_body =
          Facts.add_mems SM.empty
            (List.map fst params
            @ List.concat_map Facts.binders (all_stms_block body))
        in
        let escape = Facts.res_refs mems_body body in
        (* hoisted size, when the block is eligible *)
        let hoist_size pe sz =
          if SS.mem pe.pv hard || SS.mem pe.pv escape then None
          else
            let szr = Facts.resolve bscalars sz in
            let inner = SS.inter (SS.of_list (P.vars szr)) bound_names in
            if SS.is_empty inner then Some (szr, None)
            else if SS.equal inner (SS.singleton var) then begin
              let sz0 = P.subst var P.zero szr in
              if Pr.prove_ge ctx' sz0 szr then begin
                st.size_proofs <- st.size_proofs + 1;
                Some (sz0, Some (sz0, szr))
              end
              else None
            end
            else None
        in
        let lifted = ref [] in
        let stms' =
          List.filter
            (fun (bs : stm) ->
              match (bs.pat, bs.exp) with
              | [ pe ], EAlloc sz when pe.pt = TMem -> (
                  match hoist_size pe sz with
                  | Some (sz', proof) ->
                      lifted := stm [ pe ] (EAlloc sz') :: !lifted;
                      st.hoisted <- st.hoisted + 1;
                      let loop_binding =
                        match s.pat with q :: _ -> q.pv | [] -> "?"
                      in
                      (match cert with
                      | None -> ()
                      | Some r ->
                          let rw =
                            Certify.Hoist { block = pe.pv; loop_binding }
                          in
                          Certify.emit r rw
                            (Certify.Dies_each_iter
                               { block = pe.pv; loop_binding });
                          (match proof with
                          | Some (sz0, szr) ->
                              Certify.emit r rw ~ctx:ctx'
                                (Certify.Size_ge
                                   { larger = sz0; smaller = szr })
                          | None -> ()));
                      trace opts "reuse: hoisted alloc %s out of loop %s"
                        pe.pv loop_binding;
                      false
                  | None -> true)
              | _ -> true)
            body.stms
        in
        List.rev !lifted
        @ [ { s with exp = ELoop { lp with body = { body with stms = stms' } } } ]
    | EIf ({ tb; fb; _ } as i) ->
        let tb = go_block ~in_loop sc tb in
        let fb = go_block ~in_loop sc fb in
        let if_binding = match s.pat with q :: _ -> q.pv | [] -> "?" in
        (* Arm-local hoist candidates: allocations whose block does
           not escape the arm in expression position (loop-carried mem
           threading with a dead chain result is tolerated, see
           [arm_block_escapes]), is not the home of anything the arm
           returns, and whose size (after resolving arm-local scalar
           definitions) mentions no arm-bound variable, so the request
           is computable above the conditional. *)
        let arm_candidates (arm : block) : (pat_elem * P.t) list =
          let ascalars = Facts.add_scalars scalars arm.stms in
          let bound_names =
            List.fold_left
              (fun acc (bs : stm) ->
                List.fold_left (fun acc pe -> SS.add pe.pv acc) acc bs.pat)
              SS.empty arm.stms
          in
          let mems_arm =
            Facts.add_mems SM.empty
              (List.concat_map Facts.binders (all_stms_block arm))
          in
          let escape = Facts.res_refs mems_arm arm in
          List.filter_map
            (fun (bs : stm) ->
              match (bs.pat, bs.exp) with
              | [ pe ], EAlloc sz when pe.pt = TMem ->
                  if SS.mem pe.pv escape || arm_block_escapes arm pe.pv then
                    None
                  else
                    let szr = Facts.resolve ascalars sz in
                    if
                      SS.is_empty
                        (SS.inter (SS.of_list (P.vars szr)) bound_names)
                    then Some (pe, szr)
                    else None
              | _ -> None)
            arm.stms
        in
        let lifted = ref [] in
        let dropped = ref SS.empty in
        let renames = ref [] in
        let cert_lift (pe : pat_elem) arm claims =
          match cert with
          | None -> ()
          | Some r ->
              let rw = Certify.If_hoist { block = pe.pv; if_binding } in
              Certify.emit r rw
                (Certify.Dies_in_arm { block = pe.pv; if_binding; arm });
              List.iter
                (fun (larger, smaller) ->
                  Certify.emit r rw ~ctx
                    (Certify.Size_ge { larger; smaller }))
                claims
        in
        (* The dominating block lifts above the [if]; the partner arm's
           block is renamed into it, so either branch taken executes
           exactly one allocation where it executed one before. *)
        let lift_pair ~(kept : pat_elem * P.t * bool)
            ~(partner : pat_elem * P.t * bool) =
          let kpe, ksz, karm = kept and ppe, psz, parm = partner in
          lifted := stm [ kpe ] (EAlloc ksz) :: !lifted;
          dropped := SS.add kpe.pv (SS.add ppe.pv !dropped);
          renames := (ppe.pv, kpe.pv, parm) :: !renames;
          st.hoisted <- st.hoisted + 1;
          st.size_proofs <- st.size_proofs + 1;
          cert_lift kpe karm [ (ksz, psz) ];
          cert_lift ppe parm [];
          trace opts "reuse: hoisted alloc %s above if %s (absorbing %s)"
            kpe.pv if_binding ppe.pv
        in
        let lift_single (pe : pat_elem) sz arm =
          lifted := stm [ pe ] (EAlloc sz) :: !lifted;
          dropped := SS.add pe.pv !dropped;
          st.hoisted <- st.hoisted + 1;
          cert_lift pe arm [ (sz, P.zero) ];
          trace opts "reuse: hoisted alloc %s out of an arm of if %s" pe.pv
            if_binding
        in
        (* Unpaired candidates allocate on both paths where before they
           allocated on one, so they only pay off under a loop. *)
        let single pe sz arm = if in_loop then lift_single pe sz arm in
        let rec pair ts fs =
          match (ts, fs) with
          | (tpe, tsz) :: ts', (fpe, fsz) :: fs' ->
              if Pr.prove_ge ctx tsz fsz then
                lift_pair ~kept:(tpe, tsz, true) ~partner:(fpe, fsz, false)
              else if Pr.prove_ge ctx fsz tsz then
                lift_pair ~kept:(fpe, fsz, false) ~partner:(tpe, tsz, true)
              else begin
                single tpe tsz true;
                single fpe fsz false
              end;
              pair ts' fs'
          | ts', [] -> List.iter (fun (pe, sz) -> single pe sz true) ts'
          | [], fs' -> List.iter (fun (pe, sz) -> single pe sz false) fs'
        in
        pair (arm_candidates tb) (arm_candidates fb);
        let prune (arm : block) =
          {
            arm with
            stms =
              List.filter
                (fun (bs : stm) ->
                  match (bs.pat, bs.exp) with
                  | [ pe ], EAlloc _ -> not (SS.mem pe.pv !dropped)
                  | _ -> true)
                arm.stms;
          }
        in
        let finish arm_flag blk =
          prune
            (List.fold_left
               (fun b (oldm, newm, f) ->
                 if f = arm_flag then rename_var_block oldm newm b else b)
               blk !renames)
        in
        List.rev !lifted
        @ [ { s with exp = EIf { i with tb = finish true tb; fb = finish false fb } } ]
    | _ -> [ s ]
  and go_block ~in_loop sc (b : block) : block =
    let sc = Facts.add_block sc b in
    { b with stms = List.concat_map (go_stm ~in_loop sc) b.stms }
  in
  { p0 with body = go_block ~in_loop:false (Facts.top p0) p0.body }

(* ---------------------------------------------------------------- *)
(* Driver                                                            *)
(* ---------------------------------------------------------------- *)

(* One walk applies rotation (rewriting statement lists), then
   coalescing on the rewritten list, then recurses into sub-blocks
   with the extended scope.  [fv] is the walk's free-variable memo, so
   a nested statement the levels above it walked is not walked again;
   a rotation or a coalesce rewrites annotations in place, and makes
   the memo forget every statement it rewrote. *)
let rec walk ~fv st opts cert names allocs sc (b : block) : block =
  let sc = Facts.add_block sc b in
  let allocs =
    List.fold_left
      (fun al (s : stm) ->
        match (s.pat, s.exp) with
        | [ pe ], EAlloc sz when pe.pt = TMem -> SM.add pe.pv sz al
        | _ -> al)
      allocs b.stms
  in
  (* rotation: rewrite the statement list back to front so [tail_refs]
     is exact for the statements following each candidate; the
     rewritten statements' references are coalescing's too, as a
     rotation rewrites annotations only inside its own loop *)
  let tail = ref (Facts.res_refs sc.mems b) in
  let rotate s (acc, refs) =
    let out =
      match
        try_rotate st opts cert names sc ~fv ~alloc_sizes:allocs
          ~tail_refs:!tail s
      with
      | Some ss -> ss
      | None -> [ s ]
    in
    let out_refs =
      List.map (fun s' -> Facts.block_refs sc.mems (fv_memo_stm fv s')) out
    in
    List.iter (fun r -> tail := SS.union !tail r) out_refs;
    (out @ acc, out_refs @ refs)
  in
  let stms, refs = List.fold_right rotate b.stms ([], []) in
  let b = { b with stms } in
  coalesce_block st opts cert sc ~fv ~refs:(Array.of_list refs) b;
  let stms =
    List.map
      (fun s ->
        Chaos.probe "reuse";
        Facts.map_sub_blocks (walk ~fv st opts cert names allocs) sc s)
      b.stms
  in
  { b with stms }

let optimize ?(options = default_options) ?cert (p : prog) : prog * stats =
  let names = Ir.Names.of_prog p in
  let st = fresh_stats () in
  let p = remove_dead_chains st options cert p in
  let p = hoist_allocs st options cert p in
  let body =
    walk ~fv:(fv_memo ()) st options cert names SM.empty
      (Facts.top p) p.body
  in
  ({ p with body }, st)
