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
   a [let] whose right-hand side is an index expression is not bound as
   an opaque scalar but carried symbolically, so downstream slices stay
   fully analyzable (e.g. NW's [woff]). *)
module SM = Map.Make (String)

type env = { names : string SM.t; polys : P.t SM.t }

let env0_of names = { names; polys = SM.empty }

let lookup env v =
  match SM.find_opt v env.names with
  | Some x -> x
  | None -> err "unbound %s" v

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

(* Elaborate to an atom, emitting statements into the builder. *)
let rec elab b env (e : sexpr) : atom =
  match e with
  | SInt i -> Int i
  | SFloat f -> Float f
  | SBool v -> Bool v
  | SVar v -> (
      match SM.find_opt v env.polys with
      | Some p -> B.idx b p (* materialize an inlined index let *)
      | None -> Var (lookup env v))
  | SBin (("==" | "<" | "<=") as op, a, c) ->
      let cmp = match op with "==" -> CEq | "<" -> CLt | _ -> CLe in
      B.cmp b cmp (elab b env a) (elab b env c)
  | SBin (op, a, c) -> B.binop b (binop_of op) (elab b env a) (elab b env c)
  | SUn ("-", a) -> B.unop b Neg (elab b env a)
  | SUn ("!", a) -> B.unop b Not (elab b env a)
  | SUn ("f64", a) -> B.unop b ToF64 (elab b env a)
  | SUn ("i64", a) -> B.unop b ToI64 (elab b env a)
  | SUn (op, _) -> err "unknown unary operator %s" op
  | SCall (f, args) -> elab_call b env f args
  | SIndex (arr, dims) -> elab_index b env arr dims
  | SLet (name, rhs, body) -> (
      (* index-expression lets are inlined symbolically *)
      match to_poly b env rhs with
      | Some p -> elab b { env with polys = SM.add name p env.polys } body
      | None ->
          let a = elab b env rhs in
          let env' =
            match a with
            | Var v -> { env with names = SM.add name v env.names }
            | a ->
                let v = B.bind b name (EAtom a) in
                { env with names = SM.add name v env.names }
          in
          elab b env' body)
  | SMap (nest, body) ->
      let nest' =
        List.map
          (fun (v, bound) -> (B.fresh b v, elab_idx b env bound))
          nest
      in
      let env' =
        List.fold_left2
          (fun env (v, _) (v', _) ->
            { env with names = SM.add v v' env.names })
          env nest nest'
      in
      Var
        (B.mapnest b "map" nest' (fun bb -> [ elab bb env' body ]))
  | SLoop { acc; init; var; bound; body } ->
      let init' = elab b env init in
      let acc' = B.fresh b acc and var' = B.fresh b var in
      let bound' = elab_idx b env bound in
      let acc_t =
        match init' with
        | Var v -> B.typ_of b v
        | Int _ -> TScalar I64
        | Float _ -> TScalar F64
        | Bool _ -> TScalar Bool
      in
      let env' =
        {
          env with
          names = SM.add acc acc' (SM.add var var' env.names);
        }
      in
      let rs =
        B.loop b "loop"
          [ (acc', acc_t, init') ]
          ~var:var' ~bound:bound'
          (fun bb -> [ elab bb env' body ])
      in
      Var (List.hd rs)
  | SIf (c, t, e) ->
      let c' = elab b env c in
      let rs =
        B.if_ b "if" c'
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
      Var (B.bind b "upd" (EUpdate { dst; slc = slc'; src }))

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
      SRange
        {
          start = elab_idx b env start;
          len = elab_idx b env count;
          step =
            (match stride with
            | Some s -> elab_idx b env s
            | None -> P.one);
        }

and elab_slice b env = function
  | Striplet dims -> STriplet (List.map (elab_dim b env) dims)
  | Slmad (off, dims) ->
      SLmad
        (Lmad.make (elab_idx b env off)
           (List.map
              (fun (n, s) -> Lmad.dim (elab_idx b env n) (elab_idx b env s))
              dims))

and elab_index b env arr (slc : sslice) : atom =
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
  | slc -> Var (B.bind b (v ^ "_slc") (ESlice (v, elab_slice b env slc)))

and elab_call b env f args : atom =
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
  | "min", [ a; c ] -> B.binop b Min (elab b env a) (elab b env c)
  | "max", [ a; c ] -> B.binop b Max (elab b env a) (elab b env c)
  | "iota", [ e ] -> Var (B.bind b "iota" (EIota (elab_idx b env e)))
  | "copy", [ e ] -> Var (B.bind b "copy" (ECopy (arr_arg e)))
  | "transpose", [ e ] ->
      Var (B.bind b "transp" (ETranspose (arr_arg e, [ 1; 0 ])))
  | "reverse", [ e ] -> Var (B.bind b "rev" (EReverse (arr_arg e, 0)))
  | "concat", (_ :: _ :: _ as es) ->
      Var (B.bind b "concat" (EConcat (List.map arr_arg es)))
  | "scratch", dims when dims <> [] ->
      Var
        (B.bind b "scratch"
           (EScratch (F64, List.map (elab_idx b env) dims)))
  | "replicate", [ d; v ] ->
      Var
        (B.bind b "repl"
           (EReplicate ([ elab_idx b env d ], elab b env v)))
  | "reduce_add", [ e ] ->
      Var
        (B.bind b "red" (EReduce { op = Add; ne = Float 0.0; arr = arr_arg e }))
  | "reduce_max", [ e ] ->
      Var
        (B.bind b "red"
           (EReduce { op = Max; ne = Float neg_infinity; arr = arr_arg e }))
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
