(* Program facts shared by the memory passes and memlint (see
   facts.mli).  Short-circuiting, reuse, packing, memory introduction
   and memlint reason over the same facts: i64 scalar definitions, the
   memory side of index functions, iteration spaces and the blocks the
   binders in scope live in.  This module is their one copy; Certify
   keeps private copies on purpose (DESIGN.md section 10). *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module Refset = Lmads.Refset
module SM = Map.Make (String)

(* ---------------------------------------------------------------- *)
(* Scalar table                                                      *)
(* ---------------------------------------------------------------- *)

let atom_poly = function
  | Int c -> Some (P.const c)
  | Var v -> Some (P.var v)
  | _ -> None

let scalar_def (s : stm) : (string * P.t) option =
  match (s.pat, s.exp) with
  | [ pe ], e when pe.pt = TScalar I64 ->
      let def =
        match e with
        | EIdx p -> Some p
        | EAtom a -> atom_poly a
        | EBin (op, a, b) -> (
            match (atom_poly a, atom_poly b, op) with
            | Some pa, Some pb, Add -> Some (P.add pa pb)
            | Some pa, Some pb, Sub -> Some (P.sub pa pb)
            | Some pa, Some pb, Mul -> Some (P.mul pa pb)
            | _ -> None)
        | _ -> None
      in
      Option.map (fun p -> (pe.pv, p)) def
  | _ -> None

let add_scalars table stms =
  List.fold_left
    (fun t s ->
      match scalar_def s with Some (v, p) -> P.SM.add v p t | None -> t)
    table stms

let resolve table p = try P.subst_fixpoint table p with Failure _ -> p

let resolve_lmad table l =
  try Lmad.subst_fixpoint table l with Failure _ -> l

let resolve_ixfn table ix =
  try Ixfn.subst_fixpoint table ix with Failure _ -> ix

(* ---------------------------------------------------------------- *)
(* Binders and the blocks they live in                               *)
(* ---------------------------------------------------------------- *)

let binders (s : stm) =
  match s.exp with
  | ELoop { params; _ } -> s.pat @ List.map fst params
  | _ -> s.pat

let add_mems mems pes =
  List.fold_left
    (fun m (pe : pat_elem) ->
      match pe.pmem with Some mi -> SM.add pe.pv mi.block m | None -> m)
    mems pes

let rec exp_vars (e : exp) (acc : SS.t) : SS.t =
  let atom acc = function Var v -> SS.add v acc | _ -> acc in
  match e with
  | EAtom a | EUn (_, a) | EReplicate (_, a) -> atom acc a
  | EBin (_, a, b) | ECmp (_, a, b) -> atom (atom acc a) b
  | EIdx _ | EIota _ | EScratch _ | EAlloc _ -> acc
  | EIndex (v, _)
  | ESlice (v, _)
  | ETranspose (v, _)
  | EReshape (v, _)
  | EReverse (v, _)
  | ECopy v
  | EArgmin v ->
      SS.add v acc
  | EConcat vs -> List.fold_left (fun acc v -> SS.add v acc) acc vs
  | EReduce { ne; arr; _ } -> atom (SS.add arr acc) ne
  | EUpdate { dst; src; _ } -> (
      let acc = SS.add dst acc in
      match src with SrcArr v -> SS.add v acc | SrcScalar a -> atom acc a)
  | EMap { body; _ } -> exp_vars_block body acc
  | ELoop { params; body; _ } ->
      let acc = List.fold_left (fun acc (_, a) -> atom acc a) acc params in
      exp_vars_block body acc
  | EIf { cond; tb; fb } ->
      exp_vars_block fb (exp_vars_block tb (atom acc cond))

and exp_vars_block (b : block) (acc : SS.t) : SS.t =
  let acc = List.fold_left (fun acc s -> exp_vars s.exp acc) acc b.stms in
  List.fold_left
    (fun acc a -> match a with Var v -> SS.add v acc | _ -> acc)
    acc b.res

let block_refs mems (fv : SS.t) : SS.t =
  SS.fold
    (fun v acc ->
      match SM.find_opt v mems with Some m -> SS.add m acc | None -> acc)
    fv fv

let res_refs mems (b : block) : SS.t =
  List.fold_left
    (fun acc a ->
      match a with
      | Var v -> (
          let acc = SS.add v acc in
          match SM.find_opt v mems with
          | Some m -> SS.add m acc
          | None -> acc)
      | _ -> acc)
    SS.empty b.res

(* ---------------------------------------------------------------- *)
(* The memory side of index functions                                *)
(* ---------------------------------------------------------------- *)

(* A chain's footprint is a subset of its last link's point set, so
   bounds of the last link are sound for the whole chain. *)
let memory_lmad ixfn =
  match List.rev (Ixfn.chain ixfn) with
  | l :: _ -> l
  | [] -> Fault.internal ~where:"Facts.memory_lmad" "empty index-function chain"

let slice_dims sds =
  List.map
    (function
      | SFix i -> Lmad.Fix i
      | SRange { start; len; step } -> Lmad.Range { start; len; step })
    sds

let sliced_ixfn ctx (slc : slice) (ixfn : Ixfn.t) : Ixfn.t option =
  match slc with
  | STriplet sds -> Some (Ixfn.slice (slice_dims sds) ixfn)
  | SLmad l -> Ixfn.lmad_slice ctx ~slc:l ixfn

(* Footnote 26: a multi-LMAD index function is overestimated. *)
let refset_of_ixfn ixfn =
  match Ixfn.accessed_set ixfn with
  | Some l -> Refset.of_lmad l
  | None -> Refset.top

let thread_slice nest ixfn =
  let inner =
    List.filteri (fun i _ -> i >= List.length nest) (Ixfn.shape ixfn)
  in
  Ixfn.slice
    (List.map (fun (v, _) -> Lmad.Fix (P.var v)) nest
    @ List.map
        (fun d -> Lmad.Range { start = P.zero; len = d; step = P.one })
        inner)
    ixfn

(* ---------------------------------------------------------------- *)
(* Iteration spaces                                                  *)
(* ---------------------------------------------------------------- *)

let with_range ctx v count =
  Pr.add_range ctx v ~lo:P.zero ~hi:(P.sub count P.one) ()

let with_nest ctx nest =
  List.fold_left (fun ctx (v, n) -> with_range ctx v n) ctx nest

let expand ctx dims rs =
  List.fold_left
    (fun acc (v, n) -> Refset.expand_loop ctx v ~count:n acc)
    rs dims

(* Section V-B: one thread's writes [w] must avoid every other
   thread's uses [u].  "Other" is split on the first differing nest
   dimension [v]: the dimensions before it coincide, the other
   thread's [v] is strictly smaller or strictly larger, and the
   dimensions after it range freely on both sides.  Those are
   aggregated into LMAD dimensions (section II-B) rather than left as
   free variables, which keeps the offset distribution of the
   non-overlap test decidable (LUD's 2-D interior nest). *)
let other_threads ~where ~tag ~disjoint ctx nest ~w ~u =
  let ctx = with_nest ctx nest in
  let rec cases = function
    | [] -> true
    | (v, cnt) :: rest ->
        let jv = Binder.name ~where tag v ctx [ w; u ] in
        let w' = expand ctx rest w in
        let u' = expand ctx rest (Refset.subst v (P.var jv) u) in
        let ctx_lt = with_range ctx jv (P.var v) in
        let ctx_gt =
          Pr.add_range ctx jv
            ~lo:(P.add (P.var v) P.one)
            ~hi:(P.sub cnt P.one) ()
        in
        disjoint ctx_lt w' u' && disjoint ctx_gt w' u' && cases rest
  in
  cases nest

(* ---------------------------------------------------------------- *)
(* Scopes                                                            *)
(* ---------------------------------------------------------------- *)

type scope = { ctx : Pr.t; scalars : P.t P.SM.t; mems : string SM.t }

let top (p : prog) =
  { ctx = p.ctx; scalars = P.SM.empty; mems = add_mems SM.empty p.params }

let add_block sc (b : block) =
  {
    sc with
    scalars = add_scalars sc.scalars b.stms;
    mems = add_mems sc.mems (List.concat_map binders b.stms);
  }

let enter sc (s : stm) =
  let range sc (v, n) =
    { sc with ctx = with_range sc.ctx v (resolve sc.scalars n) }
  in
  match s.exp with
  | EMap { nest; _ } -> List.fold_left range sc nest
  | ELoop { var; bound; params; _ } ->
      {
        (range sc (var, bound)) with
        mems = add_mems sc.mems (List.map fst params);
      }
  | _ -> sc

let map_sub_blocks f sc (s : stm) =
  { s with exp = map_exp_blocks (f (enter sc s)) s.exp }
