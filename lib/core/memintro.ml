(* Memory introduction (section IV-C).

   Rewrites a memory-agnostic program into one where every array binding
   carries a memory block and an index function:

   - statements creating fresh arrays get a preceding [EAlloc] and a
     row-major index function;
   - change-of-layout statements reuse the operand's block with a
     transformed index function (no allocation);
   - [if] and [loop] results living in branch-dependent memory are
     existentialized: the pattern binds the memory block and any scalars
     produced by anti-unification of the branch index functions, and the
     branches return the corresponding witnesses (paper Fig. 5).

   Each array result of an [if]/[loop] is grouped as
   [mem, witness..., array] consistently in the parameter list, the
   body/branch results, and the binding pattern, which keeps the three
   aligned by construction.

   Stripping all memory annotations (and [EAlloc]/[TMem] bindings)
   yields the original program's semantics; the reference interpreter
   simply carries opaque tokens for memory values. *)

open Ir.Ast
module P = Symalg.Poly
module Ixfn = Lmads.Ixfn
module SM = Map.Make (String)

exception Mem_error of string

let err fmt = Fmt.kstr (fun s -> raise (Mem_error s)) fmt

type env = {
  mems : mem_info SM.t; (* array var -> memory *)
  types : typ SM.t;
  names : Ir.Names.supply; (* the pass's own, seeded by its input *)
}

let lookup_mem env v =
  match SM.find_opt v env.mems with
  | Some m -> m
  | None -> err "memintro: no memory for array %s" v

let bind_mem env pe mem =
  pe.pmem <- Some mem;
  {
    env with
    mems = SM.add pe.pv mem env.mems;
    types = SM.add pe.pv pe.pt env.types;
  }

let bind_plain env pe = { env with types = SM.add pe.pv pe.pt env.types }

(* Fresh allocation for a pattern element of array type; returns the
   alloc statement and the memory info. *)
let alloc_for env pe =
  match pe.pt with
  | TArr (_, shape) ->
      let mname = Ir.Names.fresh env.names (pe.pv ^ "_mem") in
      let size = P.prod shape in
      let alloc = stm [ pat_elem mname TMem ] (EAlloc size) in
      (alloc, { block = mname; ixfn = Ixfn.row_major shape })
  | _ -> err "memintro: alloc for non-array %s" pe.pv

(* The index function of a slice of an array with index function [ixfn]. *)
let sliced_ixfn ctx (slc : slice) (ixfn : Ixfn.t) : Ixfn.t =
  match Facts.sliced_ixfn ctx slc ixfn with
  | Some ix -> ix
  | None -> err "memintro: LMAD slice of non-flattenable layout"

(* Materialize a polynomial as an atom, creating an [EIdx] statement if
   needed.  Returns (statements, atom). *)
let poly_atom fresh (p : P.t) : stm list * atom =
  match P.to_const_opt p with
  | Some c -> ([], Int c)
  | None -> (
      match P.monos p with
      | [ { coeff = 1; pows = [ (v, 1) ] } ] -> ([], Var v)
      | _ ->
          let v = fresh "w" in
          ([ stm [ pat_elem v (TScalar I64) ] (EIdx p) ], Var v))

let poly_atoms fresh ps =
  let stms, atoms = List.split (List.map (poly_atom fresh) ps) in
  (List.concat stms, atoms)

let cert_emit cert rw ?ctx claim =
  match cert with Some r -> Certify.emit r rw ?ctx claim | None -> ()

(* ---------------------------------------------------------------- *)
(* Main traversal                                                    *)
(* ---------------------------------------------------------------- *)

let rec transform_block cert ctx env (b : block) : block * env =
  let stms, env =
    List.fold_left
      (fun (acc, env) s ->
        let new_stms, env = transform_stm cert ctx env s in
        (List.rev_append new_stms acc, env))
      ([], env) b.stms
  in
  ({ b with stms = List.rev stms }, env)

and transform_stm cert ctx env (s : stm) : stm list * env =
  let fresh_result s =
    let allocs, env =
      List.fold_left
        (fun (allocs, env) pe ->
          if is_array_typ pe.pt then (
            let alloc, mem = alloc_for env pe in
            cert_emit cert
              (Certify.Mem_intro { block = mem.block; binding = pe.pv })
              ~ctx
              (Certify.Footprint_fits { block = mem.block; arr = pe.pv });
            (alloc :: allocs, bind_mem env pe mem))
          else (allocs, bind_plain env pe))
        ([], env) s.pat
    in
    (List.rev allocs @ [ s ], env)
  in
  let view_result v f =
    match s.pat with
    | [ pe ] ->
        let m = lookup_mem env v in
        let mem = { m with ixfn = f m.ixfn } in
        ([ s ], bind_mem env pe mem)
    | _ -> err "memintro: view with multi-pattern"
  in
  match s.exp with
  | EIota _ | EScratch _ | EReplicate _ | ECopy _ | EConcat _ ->
      fresh_result s
  | EAtom (Var v) when s.pat <> [] && is_array_typ (List.hd s.pat).pt ->
      view_result v Fun.id
  | ESlice (v, slc) -> view_result v (sliced_ixfn ctx slc)
  | ETranspose (v, perm) -> view_result v (Ixfn.permute perm)
  | EReverse (v, d) -> view_result v (Ixfn.reverse d)
  | EReshape (v, new_shape) -> view_result v (Ixfn.reshape ctx new_shape)
  | EUpdate { dst; _ } -> (
      match s.pat with
      | [ pe ] ->
          let m = lookup_mem env dst in
          ([ s ], bind_mem env pe m)
      | _ -> err "memintro: update with multi-pattern")
  | EMap { nest; body } ->
      let env_body =
        List.fold_left
          (fun env (v, _) -> bind_plain env (pat_elem v (TScalar I64)))
          env nest
      in
      let body, _ = transform_block cert ctx env_body body in
      fresh_result { s with exp = EMap { nest; body } }
  | ELoop { params; var; bound; body } ->
      transform_loop cert ctx env s params var bound body
  | EIf { cond; tb; fb } -> transform_if cert ctx env s cond tb fb
  | EAtom _ | EBin _ | ECmp _ | EUn _ | EIdx _ | EIndex _ | EReduce _
  | EArgmin _ | EAlloc _ ->
      ([ s ], List.fold_left bind_plain env s.pat)

(* Loops (Fig. 5b).  For each array-typed loop parameter:
   - a TMem parameter precedes it (initialized with the initializer's
     block, rebound each iteration to the body result's block);
   - witness i64 parameters carry the existential scalars of the
     anti-unified index function;
   - the parameter's annotation is the anti-unified index function over
     the witness parameter names.
   The statement's binding pattern mirrors the grouping. *)
and transform_loop cert ctx env s params var bound body =
  let fresh = Ir.Names.fresh env.names in
  (* Provisional body environment: array params annotated with their
     initializer's index function in a fresh block name.  One transform
     round suffices: the supported programs rebuild their loop results,
     so the result's index function does not depend on the provisional
     annotation's precise shape. *)
  let annotated =
    List.map
      (fun (pe, init) ->
        if is_array_typ pe.pt then
          match init with
          | Var iv ->
              let im = lookup_mem env iv in
              let mname = fresh (pe.pv ^ "_mem") in
              `Arr (pe, init, im, mname)
          | _ -> err "memintro: loop array init must be a variable"
        else `Scalar (pe, init))
      params
  in
  let env_body =
    List.fold_left
      (fun env p ->
        match p with
        | `Arr (pe, _, (im : mem_info), mname) ->
            bind_mem env pe { block = mname; ixfn = im.ixfn }
        | `Scalar (pe, _) -> bind_plain env pe)
      (bind_plain env (pat_elem var (TScalar I64)))
      annotated
  in
  let body, env_after = transform_block cert ctx env_body body in
  if List.length body.res <> List.length params then
    err "memintro: loop arity mismatch";
  (* Per-parameter groups. *)
  let groups =
    List.map2
      (fun p res ->
        match p with
        | `Scalar (pe, init) -> `Scalar (pe, init, res)
        | `Arr (pe, init, im, mname) -> (
            match res with
            | Var rv ->
                let rm = lookup_mem env_after rv in
                let au =
                  match
                    Lmads.Antiunify.ixfns ~fresh im.ixfn rm.ixfn
                  with
                  | Some r -> r
                  | None ->
                      err
                        "memintro: loop %s: anti-unification failed (%a vs \
                         %a); insert an explicit copy"
                        pe.pv Ixfn.pp im.ixfn Ixfn.pp rm.ixfn
                in
                `Arr (pe, init, im, mname, rm, res, au)
            | _ -> err "memintro: loop body must return array variables"))
      annotated body.res
  in
  (* Assemble loop params, body results, binding pattern and pre-stms,
     preserving per-parameter grouping [mem; wits...; orig]. *)
  let pre_stms = ref [] in
  let body_extra = ref [] in
  let loop_params = ref [] in
  let body_res = ref [] in
  let bind_pats = ref [] in
  let env = ref env in
  List.iter
    (fun g ->
      match g with
      | `Scalar (pe, init, res) ->
          loop_params := !loop_params @ [ (pe, init) ];
          body_res := !body_res @ [ res ];
          bind_pats := !bind_pats @ [ `Orig ]
      | `Arr (pe, init, (im : mem_info), mname, (rm : mem_info), res, au) ->
          let bindings = au.Lmads.Antiunify.bindings in
          (* memory param *)
          loop_params :=
            !loop_params @ [ (pat_elem mname TMem, Var im.block) ];
          body_res := !body_res @ [ Var rm.block ];
          (* witness params *)
          let init_stms, init_atoms =
            poly_atoms fresh
              (List.map (fun b -> b.Lmads.Antiunify.left) bindings)
          in
          let res_stms, res_atoms =
            poly_atoms fresh
              (List.map (fun b -> b.Lmads.Antiunify.right) bindings)
          in
          pre_stms := !pre_stms @ init_stms;
          body_extra := !body_extra @ res_stms;
          List.iter2
            (fun b a ->
              loop_params :=
                !loop_params
                @ [ (pat_elem b.Lmads.Antiunify.exist (TScalar I64), a) ])
            bindings init_atoms;
          body_res := !body_res @ res_atoms;
          (* the array param itself, annotated with the lgg *)
          pe.pmem <- Some { block = mname; ixfn = au.Lmads.Antiunify.ixfn };
          loop_params := !loop_params @ [ (pe, init) ];
          body_res := !body_res @ [ res ];
          (* binding pattern: fresh mem + witness names + original pe *)
          let mem_r = pat_elem (fresh (mname ^ "_r")) TMem in
          let wit_rs =
            List.map
              (fun b -> pat_elem (fresh b.Lmads.Antiunify.exist) (TScalar I64))
              bindings
          in
          let subst =
            List.fold_left2
              (fun acc b wr -> P.SM.add b.Lmads.Antiunify.exist (P.var wr.pv) acc)
              P.SM.empty bindings wit_rs
          in
          let out_ixfn = Ixfn.subst_map subst au.Lmads.Antiunify.ixfn in
          bind_pats :=
            !bind_pats
            @ [ `Mem mem_r ]
            @ List.map (fun w -> `Wit w) wit_rs
            @ [ `Annot (mem_r.pv, out_ixfn) ])
    groups;
  (* The original statement pattern's array elements receive the
     existential memory; scalars pass through.  We rebuild the pattern
     in group order, reusing the original pattern elements. *)
  let orig_pats = s.pat in
  if List.length orig_pats <> List.length groups then
    err "memintro: loop pattern arity mismatch";
  let final_pats = ref [] in
  (* Walk bind_pats; `Annot and scalar `Plain consume one original
     pattern element (the next result), witness `Plain binders do not. *)
  let origs = ref orig_pats in
  let take_orig () =
    match !origs with
    | o :: rest ->
        origs := rest;
        o
    | [] -> err "memintro: pattern underflow"
  in
  let cur_wits = ref [] in
  List.iter
    (fun bp ->
      match bp with
      | `Mem pe ->
          final_pats := !final_pats @ [ pe ];
          cur_wits := [];
          env := { !env with types = SM.add pe.pv TMem !env.types }
      | `Wit pe ->
          final_pats := !final_pats @ [ pe ];
          cur_wits := !cur_wits @ [ pe.pv ];
          env := bind_plain !env pe
      | `Orig ->
          let o = take_orig () in
          final_pats := !final_pats @ [ o ];
          env := bind_plain !env o
      | `Annot (mem_name, out_ixfn) ->
          let o = take_orig () in
          final_pats := !final_pats @ [ o ];
          cert_emit cert
            (Certify.Exist_intro { binding = o.pv })
            ~ctx
            (Certify.Grouped { mem = mem_name; wits = !cur_wits; arr = o.pv });
          env := bind_mem !env o { block = mem_name; ixfn = out_ixfn })
    !bind_pats;
  let body = { stms = body.stms @ !body_extra; res = !body_res } in
  let new_stm =
    stm !final_pats (ELoop { params = !loop_params; var; bound; body })
  in
  (!pre_stms @ [ new_stm ], !env)

(* Ifs (Fig. 5a): same grouping per array result. *)
and transform_if cert ctx env s cond tb fb =
  let fresh = Ir.Names.fresh env.names in
  let tb, env_t = transform_block cert ctx env tb in
  let fb, env_f = transform_block cert ctx env fb in
  if
    List.length tb.res <> List.length s.pat
    || List.length fb.res <> List.length s.pat
  then err "memintro: if arity mismatch";
  let env = ref env in
  let final_pats = ref [] in
  let res_t = ref [] and res_f = ref [] in
  let extra_t = ref [] and extra_f = ref [] in
  List.iteri
    (fun k pe ->
      let rt = List.nth tb.res k and rf = List.nth fb.res k in
      if not (is_array_typ pe.pt) then (
        final_pats := !final_pats @ [ pe ];
        res_t := !res_t @ [ rt ];
        res_f := !res_f @ [ rf ];
        env := bind_plain !env pe)
      else
        match (rt, rf) with
        | Var vt, Var vf ->
            let mt = lookup_mem env_t vt and mf = lookup_mem env_f vf in
            let au =
              match
                Lmads.Antiunify.ixfns ~fresh mt.ixfn mf.ixfn
              with
              | Some r -> r
              | None -> err "memintro: if %s: anti-unification failed" pe.pv
            in
            let bindings = au.Lmads.Antiunify.bindings in
            let mem_pat = pat_elem (fresh (pe.pv ^ "_mem")) TMem in
            let wit_pats =
              List.map
                (fun b -> pat_elem b.Lmads.Antiunify.exist (TScalar I64))
                bindings
            in
            let t_stms, t_atoms =
              poly_atoms fresh
                (List.map (fun b -> b.Lmads.Antiunify.left) bindings)
            in
            let f_stms, f_atoms =
              poly_atoms fresh
                (List.map (fun b -> b.Lmads.Antiunify.right) bindings)
            in
            extra_t := !extra_t @ t_stms;
            extra_f := !extra_f @ f_stms;
            res_t := !res_t @ [ Var mt.block ] @ t_atoms @ [ rt ];
            res_f := !res_f @ [ Var mf.block ] @ f_atoms @ [ rf ];
            final_pats := !final_pats @ [ mem_pat ] @ wit_pats @ [ pe ];
            cert_emit cert
              (Certify.Exist_intro { binding = pe.pv })
              ~ctx
              (Certify.Grouped
                 {
                   mem = mem_pat.pv;
                   wits = List.map (fun w -> w.pv) wit_pats;
                   arr = pe.pv;
                 });
            env := { !env with types = SM.add mem_pat.pv TMem !env.types };
            List.iter (fun w -> env := bind_plain !env w) wit_pats;
            env :=
              bind_mem !env pe
                { block = mem_pat.pv; ixfn = au.Lmads.Antiunify.ixfn }
        | _ -> err "memintro: if returning non-variable array %s" pe.pv)
    s.pat;
  let tb = { stms = tb.stms @ !extra_t; res = !res_t } in
  let fb = { stms = fb.stms @ !extra_f; res = !res_f } in
  ([ stm !final_pats (EIf { cond; tb; fb }) ], !env)

(* ---------------------------------------------------------------- *)
(* Entry point                                                        *)
(* ---------------------------------------------------------------- *)

let introduce ?cert (p : prog) : prog =
  let names = Ir.Names.of_prog p in
  let env =
    List.fold_left
      (fun env pe ->
        match pe.pt with
        | TArr (_, shape) ->
            (* input arrays arrive in their own memory, row-major *)
            let mname = pe.pv ^ "_mem" in
            let mem = { block = mname; ixfn = Ixfn.row_major shape } in
            pe.pmem <- Some mem;
            {
              env with
              mems = SM.add pe.pv mem env.mems;
              types = SM.add mname TMem (SM.add pe.pv pe.pt env.types);
            }
        | _ -> bind_plain env pe)
      { mems = SM.empty; types = SM.empty; names }
      p.params
  in
  let body, _ = transform_block cert p.ctx env p.body in
  { p with body }
