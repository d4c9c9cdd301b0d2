(* Builder combinators for constructing IR programs.

   The elaborator and the tests author programs through this module
   rather than raw AST constructors: a builder carries a typing
   environment so statement result types are inferred, and fresh names
   are generated automatically.  Usage:

     let prog =
       Build.prog "nw" ~params:[...] ~ret:[...] (fun b ->
         let a = Build.bind b "a" (EIota n) in
         ...;
         [ Ast.Var a ])
*)

open Ast
module P = Symalg.Poly
module SM = Map.Make (String)

type t = {
  mutable stms : stm list; (* reversed *)
  mutable types : typ SM.t;
  parent : t option;
  names : Names.supply;
}

let root names = { stms = []; types = SM.empty; parent = None; names }

let make ?parent () =
  match parent with
  | Some p -> { stms = []; types = p.types; parent; names = p.names }
  | None -> root (Names.above [])

let fresh b base = Names.fresh b.names base

let declare b v t = b.types <- SM.add v t b.types

let typ_of b v =
  match SM.find_opt v b.types with
  | Some t -> t
  | None -> invalid_arg ("Build.typ_of: unbound " ^ v)

let infer b (e : exp) : typ list = Check.infer_pure b.types e

(* Append a statement binding fresh names for each result; returns the
   names.  [names] optionally suggests base names. *)
let bind_multi ?names b (e : exp) : string list =
  let typs = infer b e in
  let bases =
    match names with
    | Some ns when List.length ns = List.length typs -> ns
    | _ -> List.map (fun _ -> "t") typs
  in
  let pes = List.map2 (fun base t -> pat_elem (fresh b base) t) bases typs in
  List.iter (fun pe -> declare b pe.pv pe.pt) pes;
  b.stms <- stm pes e :: b.stms;
  List.map (fun pe -> pe.pv) pes

let bind b name (e : exp) : string =
  match bind_multi ~names:[ name ] b e with
  | [ v ] -> v
  | _ -> invalid_arg "Build.bind: expression has multiple results"

(* Bind with an exact (non-fresh) name; used by tests that want
   predictable output. *)
let bind_exact b name (e : exp) : string =
  match infer b e with
  | [ t ] ->
      declare b name t;
      b.stms <- stm [ pat_elem name t ] e :: b.stms;
      name
  | _ -> invalid_arg "Build.bind_exact: multiple results"

(* Build a sub-block in a child builder. *)
let subblock b ?(binds = []) (f : t -> atom list) : block =
  let child = make ~parent:b () in
  List.iter (fun (v, t) -> declare child v t) binds;
  let res = f child in
  block (List.rev child.stms) res

(* ---------------------------------------------------------------- *)
(* Convenience wrappers for common expressions                        *)
(* ---------------------------------------------------------------- *)

let mapnest b name (nest : (string * idx) list) (f : t -> atom list) : string
    =
  let body =
    subblock b ~binds:(List.map (fun (v, _) -> (v, TScalar I64)) nest) f
  in
  bind b name (EMap { nest; body })

let mapnest_multi ?names b (nest : (string * idx) list) (f : t -> atom list)
    : string list =
  let body =
    subblock b ~binds:(List.map (fun (v, _) -> (v, TScalar I64)) nest) f
  in
  bind_multi ?names b (EMap { nest; body })

(* loop over accumulators: [params] are (name, type, init). *)
let loop b name (params : (string * typ * atom) list) ~(var : string)
    ~(bound : idx) (f : t -> atom list) : string list =
  let pes = List.map (fun (v, t, init) -> (pat_elem v t, init)) params in
  let binds =
    (var, TScalar I64) :: List.map (fun (v, t, _) -> (v, t)) params
  in
  let body = subblock b ~binds f in
  bind_multi
    ~names:(List.map (fun (v, _, _) -> name ^ "_" ^ v) params)
    b
    (ELoop { params = pes; var; bound; body })

(* Single-accumulator loop with generated parameter/index names; the
   body callback receives them, which keeps nested instantiations of
   the same template unique program-wide. *)
let loop1 b name (init_t : typ) (init : atom) ~(bound : idx)
    (f : t -> param:string -> i:P.t -> atom) : string =
  let pv = fresh b (name ^ "_acc") in
  let iv = fresh b (name ^ "_i") in
  match
    loop b name
      [ (pv, init_t, init) ]
      ~var:iv ~bound
      (fun bb -> [ f bb ~param:pv ~i:(P.var iv) ])
  with
  | [ r ] -> r
  | _ -> invalid_arg "Build.loop1"

let if_ b name cond (ft : t -> atom list) (ff : t -> atom list) : string list
    =
  let tb = subblock b ft and fb = subblock b ff in
  bind_multi ~names:[ name ] b (EIf { cond; tb; fb })

(* Scalar helpers producing atoms directly. *)
let idx b (i : idx) : atom =
  match P.to_const_opt i with
  | Some c -> Int c
  | None -> (
      match P.monos i with
      | [ { coeff = 1; pows = [ (v, 1) ] } ] -> Var v
      | _ -> Var (bind b "ix" (EIdx i)))

let binop b op a1 a2 : atom = Var (bind b "v" (EBin (op, a1, a2)))
let unop b op a : atom = Var (bind b "v" (EUn (op, a)))
let cmp b op a1 a2 : atom = Var (bind b "c" (ECmp (op, a1, a2)))
let index b arr idxs : atom = Var (bind b (arr ^ "_elem") (EIndex (arr, idxs)))

let fadd b a1 a2 = binop b Add a1 a2
let fmul b a1 a2 = binop b Mul a1 a2

(* ---------------------------------------------------------------- *)
(* Programs                                                          *)
(* ---------------------------------------------------------------- *)

let prog ?(ctx = Symalg.Prover.empty) name ~params ~ret (f : t -> atom list)
    : prog =
  let b = root (Names.above (List.map (fun pe -> pe.pv) params)) in
  List.iter (fun pe -> declare b pe.pv pe.pt) params;
  let res = f b in
  let body = block (List.rev b.stms) res in
  let p = { name; params; body; ret; ctx } in
  Check.check_prog p;
  p

(* Convenient triplet-slice constructors. *)
let range ?(step = P.one) start len = SRange { start; len; step }
let all n = SRange { start = P.zero; len = n; step = P.one }
