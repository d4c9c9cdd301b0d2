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
   functional program; the interpreter ignores the annotations and
   evaluates blocks to inert tokens (a parameter's annotated block
   included), so a memory-annotated program runs as its source.

   Free variables are one walk that adds names to a single set, with
   no set built per atom, polynomial or annotation.  An analysis that
   asks about statements at every level of a program asks a memo
   ([fv_memo]), so each statement is walked once per analysis call,
   not once per enclosing block; [fv_visits] counts the walk's visits
   for the tests that pin this. *)

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

(* Expressions the free-variable walk has visited, read and reset like
   the prover's statistics: tests pin how much walking each analysis
   does. *)
let fv_visit_count = ref 0
let fv_visits () = !fv_visit_count
let reset_fv_visits () = fv_visit_count := 0

(* The walk adds names to one accumulator [acc]; [bound] holds the
   names bound between the walk's root and the current point, which
   are not free there.  An atom or a polynomial adds its names in
   place: no set is built for it. *)
let add_name bound v acc = if SS.mem v bound then acc else SS.add v acc

let add_atom bound a acc =
  match a with Var v -> add_name bound v acc | _ -> acc

let add_idx bound (i : idx) acc =
  List.fold_left
    (fun acc (m : P.mono) ->
      List.fold_left (fun acc (v, _) -> add_name bound v acc) acc m.pows)
    acc (P.monos i)

let add_idxs bound is acc =
  List.fold_left (fun acc i -> add_idx bound i acc) acc is

let add_lmad bound ({ off; dims } : Lmads.Lmad.t) acc =
  List.fold_left
    (fun acc ({ n; s } : Lmads.Lmad.dim) ->
      add_idx bound s (add_idx bound n acc))
    (add_idx bound off acc) dims

let add_slice bound slc acc =
  match slc with
  | STriplet sds ->
      List.fold_left
        (fun acc sd ->
          match sd with
          | SFix i -> add_idx bound i acc
          | SRange { start; len; step } ->
              add_idx bound step (add_idx bound len (add_idx bound start acc)))
        acc sds
  | SLmad l -> add_lmad bound l acc

let bind_names bound pes = List.fold_left (fun b pe -> SS.add pe.pv b) bound pes

(* One expression, statement or block.  [sub bound b acc] adds the
   names free in a nested block [b] under [bound] (its own binders
   included); it is asked once for each nested block, in program
   order (an [if]'s true arm first). *)
let add_exp_with sub bound (e : exp) acc =
  incr fv_visit_count;
  match e with
  | EAtom a | EUn (_, a) -> add_atom bound a acc
  | EBin (_, a, b) | ECmp (_, a, b) -> add_atom bound b (add_atom bound a acc)
  | EIdx i | EIota i | EAlloc i -> add_idx bound i acc
  | EIndex (v, is) | EReshape (v, is) ->
      add_idxs bound is (add_name bound v acc)
  | ESlice (v, slc) -> add_slice bound slc (add_name bound v acc)
  | ETranspose (v, _) | EReverse (v, _) | ECopy v | EArgmin v ->
      add_name bound v acc
  | EReplicate (shape, a) -> add_idxs bound shape (add_atom bound a acc)
  | EScratch (_, shape) -> add_idxs bound shape acc
  | EConcat vs -> List.fold_left (fun acc v -> add_name bound v acc) acc vs
  | EUpdate { dst; slc; src } ->
      let acc = add_name bound dst acc in
      let acc =
        match src with
        | SrcArr v -> add_name bound v acc
        | SrcScalar a -> add_atom bound a acc
      in
      add_slice bound slc acc
  | EMap { nest; body } ->
      let acc =
        List.fold_left (fun acc (_, n) -> add_idx bound n acc) acc nest
      in
      sub (List.fold_left (fun b (v, _) -> SS.add v b) bound nest) body acc
  | EReduce { ne; arr; _ } -> add_atom bound ne (add_name bound arr acc)
  | ELoop { params; var; bound = n; body } ->
      let acc =
        List.fold_left (fun acc (_, a) -> add_atom bound a acc) acc params
      in
      let acc = add_idx bound n acc in
      sub (bind_names (SS.add var bound) (List.map fst params)) body acc
  | EIf { cond; tb; fb } ->
      sub bound fb (sub bound tb (add_atom bound cond acc))

(* A statement's expression and its memory annotations: each block
   name and the names of its index function.  A statement's own
   binders are not bound in its annotations. *)
let add_stm_with sub bound (s : stm) acc =
  List.fold_left
    (fun acc pe ->
      match pe.pmem with
      | None -> acc
      | Some { block; ixfn } ->
          List.fold_left
            (fun acc l -> add_lmad bound l acc)
            (add_name bound block acc) (Ixfn.chain ixfn))
    (add_exp_with sub bound s.exp acc)
    s.pat

(* [stm bound s acc] adds a statement's free names, each statement
   under the names the ones before it bind. *)
let add_block_with stm bound (b : block) acc =
  let bound, acc =
    List.fold_left
      (fun (bound, acc) s -> (bind_names bound s.pat, stm bound s acc))
      (bound, acc) b.stms
  in
  List.fold_left (fun acc a -> add_atom bound a acc) acc b.res

let rec add_block bound b acc = add_block_with add_stm bound b acc
and add_stm bound s acc = add_stm_with add_block bound s acc

let fv_atom a = add_atom SS.empty a SS.empty
let fv_idx i = add_idx SS.empty i SS.empty
let fv_exp e = add_exp_with add_block SS.empty e SS.empty
let fv_stm s = add_stm SS.empty s SS.empty
let fv_block b = add_block SS.empty b SS.empty

(* The [_with] forms take the free variables of each nested block
   ([fv_body]) or each statement ([fv_s]) from their caller, asking
   once for each, in program order (an [if]'s true arm first):
   {!fv_memo_stm} answers with the statements it has already walked,
   and a caller that wants a statement's header alone with the empty
   set. *)
let given fv bound x acc = SS.union acc (SS.diff (fv x) bound)

let fv_exp_with fv_body e = add_exp_with (given fv_body) SS.empty e SS.empty
let fv_stm_with fv_body s = add_stm_with (given fv_body) SS.empty s SS.empty
let fv_block_with fv_s b = add_block_with (given fv_s) SS.empty b SS.empty

(* Statements by physical identity.  The hash reads only the pattern's
   names, which no pass rewrites in place. *)
module Stm_tbl = Hashtbl.Make (struct
  type t = stm

  let equal = ( == )
  let hash s =
    List.fold_left (fun h pe -> (h * 31) + Hashtbl.hash pe.pv) 0 s.pat
end)

(* A memo of [fv_stm]: every statement it answers for is walked once,
   a nested one included, whatever the question order.  An answer
   includes the statement's annotations, which passes rewrite in place,
   so a memo serves one analysis call and is dropped with it; a call
   that rewrites annotations forgets each statement it rewrites (with
   its ancestors up to the rewrite's root), or starts a new memo. *)
type fv_memo = SS.t Stm_tbl.t

let fv_memo () : fv_memo = Stm_tbl.create 64

let rec fv_memo_stm (memo : fv_memo) s =
  match Stm_tbl.find_opt memo s with
  | Some fv -> fv
  | None ->
      let fv = fv_stm_with (fv_block_with (fv_memo_stm memo)) s in
      Stm_tbl.add memo s fv;
      fv

let fv_memo_forget (memo : fv_memo) s = Stm_tbl.remove memo s

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
