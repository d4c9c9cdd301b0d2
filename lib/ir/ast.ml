(* The core IR: a functional array language equivalent to the subset of
   Futhark's core IR used by the paper (section II-C).

   Parallelism is expressed with [EMap] ("mapnest": a perfect nest of
   parallel loops over an index space); sequencing with [ELoop]; arrays
   are created fresh by map, copy, iota, scratch, replicate and concat,
   and transformed for free (O(1)) by slicing, transposition, reshaping
   and reversal.  In-place updates [EUpdate] are the functional
   "A with [W] = X" form: semantically a copy of A with the slice
   replaced, operationally an in-place write justified by uniqueness.

   Memory is an *add-on* (section IV): statements may allocate memory
   blocks ([EAlloc]), and every array-typed pattern element may carry a
   memory annotation (block name + index function).  Deleting all
   [pmem] annotations and [EAlloc] statements leaves a valid purely
   functional program; the interpreter ignores them entirely. *)

module P = Symalg.Poly
module Ixfn = Lmads.Ixfn

type sct = I64 | F64 | Bool

type idx = P.t
(* Index/size expressions: polynomials over in-scope i64 variables. *)

type typ =
  | TScalar of sct
  | TArr of sct * idx list (* element type, symbolic shape *)
  | TMem (* a memory block *)

type atom = Var of string | Int of int | Float of float | Bool of bool

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or

type cmpop = CEq | CLt | CLe

type unop = Neg | Sqrt | Exp | Log | Abs | Not | ToF64 | ToI64

(* ---------------------------------------------------------------- *)
(* Slices                                                            *)
(* ---------------------------------------------------------------- *)

type slice_dim =
  | SFix of idx (* fix the index: the dimension disappears *)
  | SRange of { start : idx; len : idx; step : idx }

type slice =
  | STriplet of slice_dim list (* per-dimension triplet slicing *)
  | SLmad of Lmads.Lmad.t
    (* generalized LMAD slice into the flat (row-major) index space of
       the array (section III-B) *)

(* ---------------------------------------------------------------- *)
(* Expressions, statements, blocks                                   *)
(* ---------------------------------------------------------------- *)

type update_src = SrcArr of string | SrcScalar of atom

type exp =
  | EAtom of atom
  | EBin of binop * atom * atom
  | ECmp of cmpop * atom * atom
  | EUn of unop * atom
  | EIdx of idx (* evaluate an index polynomial to an i64 *)
  | EIndex of string * idx list (* scalar array read *)
  | ESlice of string * slice (* O(1) change-of-layout view *)
  | ETranspose of string * int list (* dimension permutation *)
  | EReshape of string * idx list (* target shape *)
  | EReverse of string * int (* reverse one dimension *)
  | EIota of idx
  | EReplicate of idx list * atom
  | EScratch of sct * idx list (* fresh uninitialized array *)
  | ECopy of string (* fresh manifestation *)
  | EConcat of string list (* along dimension 0 *)
  | EUpdate of { dst : string; slc : slice; src : update_src }
  | EMap of { nest : (string * idx) list; body : block }
  | EReduce of { op : binop; ne : atom; arr : string }
  | EArgmin of string (* (value, index) of 1-D minimum *)
  | ELoop of {
      params : (pat_elem * atom) list; (* loop-carried values *)
      var : string; (* iteration variable *)
      bound : idx; (* iterates 0 .. bound-1 *)
      body : block;
    }
  | EIf of { cond : atom; tb : block; fb : block }
  | EAlloc of idx (* memory: size in elements (annotation-level) *)

and block = { stms : stm list; res : atom list }

and pat_elem = {
  pv : string;
  pt : typ;
  mutable pmem : mem_info option; (* memory add-on; None pre-memory *)
}

and mem_info = { block : string; ixfn : Ixfn.t }

and stm = {
  pat : pat_elem list;
  exp : exp;
  mutable last_uses : string list;
      (* arrays whose last (transitive) use is this statement; filled in
         by the last-use analysis, consumed by short-circuiting *)
}

type prog = {
  name : string;
  params : pat_elem list; (* scalars first by convention *)
  body : block;
  ret : typ list;
  ctx : Symalg.Prover.t;
      (* size assumptions (e.g. n = q*b + 1, q >= 2) available to the
         index analysis; dynamically checked by callers of the program *)
}

(* ---------------------------------------------------------------- *)
(* Constructors                                                      *)
(* ---------------------------------------------------------------- *)

let pat_elem ?mem pv pt = { pv; pt; pmem = mem }
let stm pat exp = { pat; exp; last_uses = [] }
let block stms res = { stms; res }

let i64 = TScalar I64
let f64 = TScalar F64
let boolt = TScalar Bool
let arr elt shape = TArr (elt, shape)

let var v = Var v

(* ---------------------------------------------------------------- *)
(* Small queries                                                     *)
(* ---------------------------------------------------------------- *)

let typ_rank = function TArr (_, shape) -> List.length shape | _ -> 0

let typ_shape = function TArr (_, shape) -> shape | _ -> []

let typ_elt = function
  | TArr (elt, _) -> Some elt
  | TScalar s -> Some s
  | TMem -> None

let is_array_typ = function TArr _ -> true | _ -> false

let atom_var = function Var v -> Some v | _ -> None

(* The logical shape produced by a slice of an array of [shape]. *)
let slice_shape slc shape =
  match slc with
  | STriplet sds ->
      assert (List.length sds = List.length shape);
      List.filter_map
        (function SFix _ -> None | SRange { len; _ } -> Some len)
        sds
  | SLmad l -> Lmads.Lmad.shape l

(* ---------------------------------------------------------------- *)
(* Free variables                                                    *)
(* ---------------------------------------------------------------- *)

module SS = Set.Make (String)

let fv_atom = function Var v -> SS.singleton v | _ -> SS.empty

let fv_idx (i : idx) = SS.of_list (P.vars i)

let fv_slice = function
  | STriplet sds ->
      List.fold_left
        (fun acc sd ->
          match sd with
          | SFix i -> SS.union acc (fv_idx i)
          | SRange { start; len; step } ->
              SS.union acc
                (SS.union (fv_idx start) (SS.union (fv_idx len) (fv_idx step))))
        SS.empty sds
  | SLmad l -> SS.of_list (Lmads.Lmad.vars l)

(* The free variables of an expression, statement or block.  The
   [_with] forms take those of each nested block ([fv_body]) or each
   statement ([fv_s]) from their caller, asking once for each, in
   program order (an [if]'s true arm first): the last-use analysis
   answers with values it computes once per block. *)
let fv_exp_with (fv_body : block -> SS.t) (e : exp) : SS.t =
  match e with
  | EAtom a -> fv_atom a
  | EBin (_, a, b) | ECmp (_, a, b) -> SS.union (fv_atom a) (fv_atom b)
  | EUn (_, a) -> fv_atom a
  | EIdx i -> fv_idx i
  | EIndex (v, idxs) ->
      List.fold_left
        (fun acc i -> SS.union acc (fv_idx i))
        (SS.singleton v) idxs
  | ESlice (v, slc) -> SS.add v (fv_slice slc)
  | ETranspose (v, _) | EReverse (v, _) | ECopy v | EArgmin v ->
      SS.singleton v
  | EReshape (v, shape) ->
      List.fold_left
        (fun acc i -> SS.union acc (fv_idx i))
        (SS.singleton v) shape
  | EIota i -> fv_idx i
  | EReplicate (shape, a) ->
      List.fold_left
        (fun acc i -> SS.union acc (fv_idx i))
        (fv_atom a) shape
  | EScratch (_, shape) ->
      List.fold_left (fun acc i -> SS.union acc (fv_idx i)) SS.empty shape
  | EConcat vs -> SS.of_list vs
  | EUpdate { dst; slc; src } ->
      let s =
        match src with SrcArr v -> SS.singleton v | SrcScalar a -> fv_atom a
      in
      SS.add dst (SS.union s (fv_slice slc))
  | EMap { nest; body } ->
      let bound = SS.of_list (List.map fst nest) in
      let counts =
        List.fold_left (fun acc (_, n) -> SS.union acc (fv_idx n)) SS.empty nest
      in
      SS.union counts (SS.diff (fv_body body) bound)
  | EReduce { ne; arr; _ } -> SS.add arr (fv_atom ne)
  | ELoop { params; var; bound; body } ->
      let inits =
        List.fold_left (fun acc (_, a) -> SS.union acc (fv_atom a)) SS.empty params
      in
      let bound_vars =
        SS.add var (SS.of_list (List.map (fun (pe, _) -> pe.pv) params))
      in
      SS.union inits
        (SS.union (fv_idx bound) (SS.diff (fv_body body) bound_vars))
  | EIf { cond; tb; fb } ->
      let t = fv_body tb in
      let f = fv_body fb in
      SS.union (fv_atom cond) (SS.union t f)
  | EAlloc i -> fv_idx i

let fv_stm_with fv_body (s : stm) : SS.t =
  let mem_fv =
    List.fold_left
      (fun acc pe ->
        match pe.pmem with
        | None -> acc
        | Some { block; ixfn } ->
            SS.add block (SS.union acc (SS.of_list (Ixfn.vars ixfn))))
      SS.empty s.pat
  in
  SS.union (fv_exp_with fv_body s.exp) mem_fv

let fv_block_with (fv_s : stm -> SS.t) (b : block) : SS.t =
  let bound, free =
    List.fold_left
      (fun (bound, free) s ->
        let f = SS.diff (fv_s s) bound in
        (SS.union bound (SS.of_list (List.map (fun pe -> pe.pv) s.pat)),
         SS.union free f))
      (SS.empty, SS.empty) b.stms
  in
  let res =
    List.fold_left (fun acc a -> SS.union acc (fv_atom a)) SS.empty b.res
  in
  SS.union free (SS.diff res bound)

let rec fv_block (b : block) : SS.t = fv_block_with fv_stm b
and fv_stm (s : stm) : SS.t = fv_stm_with fv_block s

let fv_exp (e : exp) : SS.t = fv_exp_with fv_block e

(* Variables *read* by an expression, excluding the update destination
   (which is consumed, not read, for liveness purposes)... the
   destination is in fact read too (unwritten elements persist), so it
   is included; callers that need the distinction use [consumed_by]. *)
let consumed_by = function
  | EUpdate { dst; _ } -> SS.singleton dst
  | ELoop { params; _ } ->
      (* loop-carried arrays are consumed (rebound each iteration) *)
      List.fold_left
        (fun acc (pe, a) ->
          match (pe.pt, a) with
          | TArr _, Var v -> SS.add v acc
          | _ -> acc)
        SS.empty params
  | _ -> SS.empty

(* ---------------------------------------------------------------- *)
(* Traversal: rewrite sub-blocks of an expression                     *)
(* ---------------------------------------------------------------- *)

let map_exp_blocks (f : block -> block) (e : exp) : exp =
  match e with
  | EMap m -> EMap { m with body = f m.body }
  | ELoop l -> ELoop { l with body = f l.body }
  | EIf i -> EIf { i with tb = f i.tb; fb = f i.fb }
  | e -> e

let rec map_blocks_stm (f : block -> block) (s : stm) : stm =
  { s with exp = map_exp_blocks (fun b -> f (map_blocks_block f b)) s.exp }

and map_blocks_block (f : block -> block) (b : block) : block =
  { b with stms = List.map (map_blocks_stm f) b.stms }

(* All statements, recursively (pre-order). *)
let rec all_stms_block (b : block) : stm list =
  List.concat_map
    (fun s ->
      s
      ::
      (match s.exp with
      | EMap { body; _ } -> all_stms_block body
      | ELoop { body; _ } -> all_stms_block body
      | EIf { tb; fb; _ } -> all_stms_block tb @ all_stms_block fb
      | _ -> []))
    b.stms

(* Count of statements (a proxy for program size in tests/benches). *)
let size_block b = List.length (all_stms_block b)
