(* Elaboration of the surface language into the core IR.

   The interesting part is the treatment of *index expressions*: any
   integer expression built from in-scope i64 variables, constants and
   + - * elaborates to a polynomial (the IR's index language), which is
   what lets the compiler's LMAD machinery see through the program's
   indexing.  Anything else - divisions, data-loaded values - falls
   back to an ordinary scalar binding whose *name* then appears as an
   opaque polynomial variable, exactly the conservative treatment that
   makes the Fig. 1-right example unanalyzable. *)

open Parser
open Ir.Ast
module P = Symalg.Poly
module B = Ir.Build
module Lmad = Lmads.Lmad

exception Elab_error of string

let err fmt = Fmt.kstr (fun s -> raise (Elab_error s)) fmt

(* Surface names are made unique per binding; [env] maps them to the
   generated IR names, and separately to inlined index polynomials:
   a [let] whose right-hand side is an index expression that the body
   uses in an index position is not bound as a scalar but carried
   symbolically, so downstream slices stay fully analyzable (e.g. NW's
   [woff]). *)
module SM = Map.Make (String)

type env = { names : string SM.t; polys : P.t SM.t }

let env0_of names = { names; polys = SM.empty }

let lookup env v =
  match SM.find_opt v env.names with
  | Some x -> x
  | None -> err "unbound %s" v

(* Bind [x] to an IR name, or to a polynomial; either shadows the
   other. *)
let bind_name env x v =
  { names = SM.add x v env.names; polys = SM.remove x env.polys }

let bind_poly env x p = { env with polys = SM.add x p env.polys }

let is_i64 b name =
  match B.typ_of b name with TScalar I64 -> true | _ -> false

(* ---------------------------------------------------------------- *)
(* Index polynomials                                                 *)
(* ---------------------------------------------------------------- *)

(* Try to read a surface expression as a polynomial over in-scope i64
   variables. *)
let rec to_poly b env (e : sexpr) : P.t option =
  match e with
  | SInt i -> Some (P.const i)
  | SVar v -> (
      match SM.find_opt v env.polys with
      | Some p -> Some p
      | None ->
          let v' = lookup env v in
          if is_i64 b v' then Some (P.var v') else None)
  | SBin ("+", a, c) -> map2 P.add (to_poly b env a) (to_poly b env c)
  | SBin ("-", a, c) -> map2 P.sub (to_poly b env a) (to_poly b env c)
  | SBin ("*", a, c) -> map2 P.mul (to_poly b env a) (to_poly b env c)
  | SUn ("-", a) -> Option.map P.neg (to_poly b env a)
  | _ -> None

and map2 f a b =
  match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let slice_exprs = function
  | Striplet dims ->
      List.concat_map
        (function
          | DFix e -> [ e ]
          | DRange (s, n, st) -> s :: n :: Option.to_list st)
        dims
  | Slmad (off, dims) -> off :: List.concat_map (fun (n, s) -> [ n; s ]) dims

(* Does [x] occur free in [e]: anywhere, or with [~index:true] only in
   an index position - an index or slice, a map or loop bound, an array
   size, the argument of [idx], or the right-hand side of a [let] whose
   variable is itself so used? *)
let rec occurs ~index x (e : sexpr) =
  let oc = occurs ~index x in
  (* in an index position any occurrence counts *)
  let pos = if index then occurs ~index:false x else oc in
  match e with
  | SVar v -> (not index) && v = x
  | SInt _ | SFloat _ | SBool _ -> false
  | SBin (_, a, c) -> oc a || oc c
  | SUn (_, a) -> oc a
  | SCall (("idx" | "iota" | "scratch"), es) -> List.exists pos es
  | SCall ("replicate", [ d; v ]) -> pos d || oc v
  | SCall (_, es) | STuple es -> List.exists oc es
  | SIndex (a, slc) -> oc a || List.exists pos (slice_exprs slc)
  | SWith (l, slc, r) -> oc l || List.exists pos (slice_exprs slc) || oc r
  | SLet (y, rhs, body) ->
      oc rhs
      || y <> x
         && (oc body || (index && pos rhs && occurs ~index y body))
  | SLetTuple (ys, rhs, body) -> oc rhs || ((not (List.mem x ys)) && oc body)
  | SMap (nest, body) ->
      List.exists (fun (_, n) -> pos n) nest
      || ((not (List.mem_assoc x nest)) && oc body)
  | SLoop { accs; var; bound; body } ->
      List.exists (fun (_, i) -> oc i) accs
      || pos bound
      || (x <> var && (not (List.mem_assoc x accs)) && oc body)
  | SIf (c, t, f) -> oc c || oc t || oc f

(* ---------------------------------------------------------------- *)
(* Expressions                                                       *)
(* ---------------------------------------------------------------- *)

let binop_of = function
  | "+" -> Add
  | "-" -> Sub
  | "*" -> Mul
  | "/" -> Div
  | "%" -> Rem
  | "&&" -> And
  | "||" -> Or
  | op -> err "unknown binary operator %s" op

let atom_typ b = function
  | Var v -> B.typ_of b v
  | Int _ -> i64
  | Float _ -> f64
  | Bool _ -> boolt

(* Elaborate to an atom, emitting statements into the builder.  Every
   construct elaborates its operands left to right.  [name], the
   variable of an enclosing [let], names the statement of a map, loop,
   if, slice, update or array builtin; scalar operations keep the
   names the builder gives them ([v], [c], [ix], [<array>_elem]). *)
let rec elab ?name b env (e : sexpr) : atom =
  let named base = Option.value name ~default:base in
  match e with
  | SInt i -> Int i
  | SFloat f -> Float f
  | SBool v -> Bool v
  | SUn ("-", SInt i) -> Int (-i)
  | SUn ("-", SFloat f) -> Float (-.f)
  | SVar v -> (
      match SM.find_opt v env.polys with
      | Some p -> B.idx b p (* materialize an inlined index let *)
      | None -> Var (lookup env v))
  | SBin (("==" | "<" | "<=") as op, a, c) ->
      let cmp = match op with "==" -> CEq | "<" -> CLt | _ -> CLe in
      let a = elab b env a in
      B.cmp b cmp a (elab b env c)
  | SBin (op, a, c) ->
      let a = elab b env a in
      B.binop b (binop_of op) a (elab b env c)
  | SUn ("-", a) -> B.unop b Neg (elab b env a)
  | SUn ("!", a) -> B.unop b Not (elab b env a)
  | SUn ("f64", a) -> B.unop b ToF64 (elab b env a)
  | SUn ("i64", a) -> B.unop b ToI64 (elab b env a)
  | SUn (op, _) -> err "unknown unary operator %s" op
  | SCall (f, args) -> elab_call ?name b env f args
  | SIndex (arr, dims) -> elab_index ?name b env arr dims
  | SLet (x, rhs, body) -> elab ?name b (elab_let b env x rhs body) body
  | SLetTuple (xs, rhs, body) ->
      elab ?name b (elab_let_tuple b env xs rhs) body
  | SMap (nest, body) ->
      let nest' =
        List.map
          (fun (v, bound) ->
            let v' = B.fresh b v in
            (v', elab_idx b env bound))
          nest
      in
      let env' =
        List.fold_left2
          (fun env (v, _) (v', _) -> bind_name env v v')
          env nest nest'
      in
      Var (B.mapnest b (named "map") nest' (fun bb -> [ elab bb env' body ]))
  | SLoop { accs; var; bound; body } -> (
      let names = Option.to_list name in
      match elab_loop b env ~names accs var bound body with
      | [ r ] -> Var r
      | rs ->
          err "a loop over %d accumulators needs a tuple let"
            (List.length rs))
  | SIf (c, t, e) ->
      let c' = elab b env c in
      let rs =
        B.if_ b (named "if") c'
          (fun bb -> [ elab bb env t ])
          (fun bb -> [ elab bb env e ])
      in
      Var (List.hd rs)
  | SWith (lhs, slc, rhs) ->
      let dst =
        match elab b env lhs with
        | Var v -> v
        | _ -> err "update destination must be an array variable"
      in
      let slc' = elab_slice b env slc in
      let src =
        match elab b env rhs with
        | Var v when is_array_typ (B.typ_of b v) -> SrcArr v
        | a -> SrcScalar a
      in
      Var (B.bind b (named "upd") (EUpdate { dst; slc = slc'; src }))
  | STuple _ -> err "a tuple may only be a loop body's result"

(* [let x = rhs in body]: an index expression the body uses as an index
   is carried symbolically; anything else is elaborated here, its
   statement named [x]. *)
and elab_let b env x rhs body =
  match to_poly b env rhs with
  | Some p when occurs ~index:true x body -> bind_poly env x p
  | _ -> (
      match elab ~name:x b env rhs with
      | Var v -> bind_name env x v
      | a -> bind_name env x (B.bind b x (EAtom a)))

and elab_let_tuple b env xs rhs =
  match rhs with
  | SLoop { accs; var; bound; body } ->
      if List.length xs <> List.length accs then
        err "a tuple of %d names binds a loop over %d accumulators"
          (List.length xs) (List.length accs);
      List.fold_left2 bind_name env xs
        (elab_loop b env ~names:xs accs var bound body)
  | _ -> err "a tuple let binds a loop"

(* A loop's results, one per accumulator, named [names] (or
   [loop_<acc>]). *)
and elab_loop b env ~names accs var bound body : string list =
  let params =
    List.map
      (fun (acc, init) ->
        let init = elab b env init in
        (pat_elem (B.fresh b acc) (atom_typ b init), init))
      accs
  in
  let var' = B.fresh b var in
  let bound' = elab_idx b env bound in
  let env' =
    List.fold_left2
      (fun env (acc, _) (pe, _) -> bind_name env acc pe.pv)
      (bind_name env var var') accs params
  in
  let body =
    B.subblock b
      ~binds:((var', i64) :: List.map (fun (pe, _) -> (pe.pv, pe.pt)) params)
      (fun bb ->
        let rs = elab_results bb env' body in
        if List.length rs <> List.length params then
          err "a loop over %d accumulators returns %d results"
            (List.length params) (List.length rs);
        rs)
  in
  let names =
    if List.length names = List.length params then names
    else List.map (fun (pe, _) -> "loop_" ^ pe.pv) params
  in
  B.bind_multi ~names b (ELoop { params; var = var'; bound = bound'; body })

(* The results of a loop body: a tuple's components, or one atom. *)
and elab_results b env e : atom list =
  match e with
  | STuple es -> List.map (elab b env) es
  | SLet (x, rhs, body) -> elab_results b (elab_let b env x rhs body) body
  | SLetTuple (xs, rhs, body) ->
      elab_results b (elab_let_tuple b env xs rhs) body
  | e -> [ elab b env e ]

(* An index expression: a polynomial when possible, otherwise the value
   is bound as a scalar and its (opaque) name used. *)
and elab_idx b env (e : sexpr) : idx =
  match to_poly b env e with
  | Some p -> p
  | None -> (
      match elab b env e with
      | Var v when is_i64 b v -> P.var v
      | Int i -> P.const i
      | _ -> err "index expression is not an integer")

and elab_dim b env = function
  | DFix e -> SFix (elab_idx b env e)
  | DRange (start, count, stride) ->
      let start = elab_idx b env start in
      let len = elab_idx b env count in
      let step =
        match stride with Some s -> elab_idx b env s | None -> P.one
      in
      SRange { start; len; step }

and elab_slice b env = function
  | Striplet dims -> STriplet (List.map (elab_dim b env) dims)
  | Slmad (off, dims) ->
      let off = elab_idx b env off in
      let dims =
        List.map
          (fun (n, s) ->
            let n = elab_idx b env n in
            Lmad.dim n (elab_idx b env s))
          dims
      in
      SLmad (Lmad.make off dims)

and elab_index ?name b env arr (slc : sslice) : atom =
  let v =
    match elab b env arr with
    | Var v -> v
    | _ -> err "indexed expression must be an array variable"
  in
  match slc with
  | Striplet dims
    when List.for_all (function DFix _ -> true | DRange _ -> false) dims ->
      B.index b v
        (List.map
           (function DFix e -> elab_idx b env e | DRange _ -> assert false)
           dims)
  | slc ->
      let slc = elab_slice b env slc in
      Var (B.bind b (Option.value name ~default:(v ^ "_slc")) (ESlice (v, slc)))

and elab_call ?name b env f args : atom =
  let bind base e = Var (B.bind b (Option.value name ~default:base) e) in
  let scalar1 op =
    match args with
    | [ a ] -> B.unop b op (elab b env a)
    | _ -> err "%s expects one argument" f
  in
  let arr_arg e =
    match elab b env e with
    | Var v when is_array_typ (B.typ_of b v) -> v
    | _ -> err "%s expects an array argument" f
  in
  match (f, args) with
  | "sqrt", _ -> scalar1 Sqrt
  | "exp", _ -> scalar1 Exp
  | "log", _ -> scalar1 Log
  | "abs", _ -> scalar1 Abs
  | "min", [ a; c ] ->
      let a = elab b env a in
      B.binop b Min a (elab b env c)
  | "max", [ a; c ] ->
      let a = elab b env a in
      B.binop b Max a (elab b env c)
  | "idx", [ e ] -> B.idx b (elab_idx b env e)
  | "iota", [ e ] -> bind "iota" (EIota (elab_idx b env e))
  | "copy", [ e ] -> bind "copy" (ECopy (arr_arg e))
  | "transpose", [ e ] -> bind "transp" (ETranspose (arr_arg e, [ 1; 0 ]))
  | "reverse", [ e ] -> bind "rev" (EReverse (arr_arg e, 0))
  | "concat", (_ :: _ :: _ as es) ->
      bind "concat" (EConcat (List.map arr_arg es))
  | "scratch", dims when dims <> [] ->
      bind "scratch" (EScratch (F64, List.map (elab_idx b env) dims))
  | "replicate", [ d; v ] ->
      let d = elab_idx b env d in
      bind "repl" (EReplicate ([ d ], elab b env v))
  | "reduce_add", [ e ] ->
      bind "red" (EReduce { op = Add; ne = Float 0.0; arr = arr_arg e })
  | "reduce_max", [ e ] ->
      bind "red"
        (EReduce { op = Max; ne = Float neg_infinity; arr = arr_arg e })
  | _ -> err "unknown function %s/%d" f (List.length args)

(* ---------------------------------------------------------------- *)
(* Types and programs                                                *)
(* ---------------------------------------------------------------- *)

let elab_type b env = function
  | TyI64 -> i64
  | TyF64 -> f64
  | TyBool -> boolt
  | TyArr (dims, elt) ->
      let sct =
        match elt with
        | TyI64 -> I64
        | TyF64 -> F64
        | TyBool -> Bool
        | TyArr _ -> err "nested array types are not supported"
      in
      arr sct
        (List.map
           (fun d ->
             match to_poly b env d with
             | Some p -> p
             | None -> err "array dimension must be an index expression")
           dims)

(* Elaborate a parsed program into a checked IR program.  [ctx] carries
   the size assumptions for the short-circuiting analysis. *)
let elab_prog ?(ctx = Symalg.Prover.empty) (sp : sprog) : prog =
  (* Parameters keep their surface names (they are globally unique). *)
  let env0 =
    env0_of
      (List.fold_left
         (fun env (v, _) -> SM.add v v env)
         SM.empty sp.pparams)
  in
  (* A scratch builder provides typing context for parameter types. *)
  let params =
    let tmp = B.make () in
    List.map
      (fun (v, t) ->
        let pt = elab_type tmp env0 t in
        B.declare tmp v pt;
        pat_elem v pt)
      sp.pparams
  in
  B.prog ~ctx sp.pname ~params
    ~ret:
      [
        (let tmp = B.make () in
         List.iter (fun pe -> B.declare tmp pe.pv pe.pt) params;
         elab_type tmp env0 sp.pret);
      ]
    (fun b -> [ elab b env0 sp.pbody ])

(* One-step convenience: parse then elaborate. *)
let compile_string ?ctx (src : string) : prog =
  elab_prog ?ctx (Parser.parse src)
