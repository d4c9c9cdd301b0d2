(* The reference interpreter: purely functional semantics, memory
   annotations ignored.

   This is the ground truth against which all compiler passes are
   validated: a transformed program must produce [Value.approx_equal]
   results on the reference interpreter AND on the memory-aware
   executor.  Performance is irrelevant here; every view materializes. *)

open Ast
module P = Symalg.Poly
module SM = Map.Make (String)

exception Runtime_error of string

let err fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type _env = Value.t SM.t

let lookup env v =
  match SM.find_opt v env with
  | Some x -> x
  | None -> err "interp: unbound variable %s" v

let lookup_arr env v =
  match lookup env v with
  | Value.VArr a -> a
  | _ -> err "interp: %s is not an array" v

let eval_atom env = function
  | Var v -> lookup env v
  | Int i -> Value.VInt i
  | Float f -> Value.VFloat f
  | Bool b -> Value.VBool b

let eval_idx env (i : idx) : int =
  P.eval
    (fun v ->
      match lookup env v with
      | Value.VInt x -> x
      | _ -> err "interp: index variable %s is not an integer" v)
    i

(* ---------------------------------------------------------------- *)
(* Scalar operations                                                 *)
(* ---------------------------------------------------------------- *)

let eval_bin op v1 v2 =
  let open Value in
  match (op, v1, v2) with
  | Add, VInt a, VInt b -> VInt (a + b)
  | Sub, VInt a, VInt b -> VInt (a - b)
  | Mul, VInt a, VInt b -> VInt (a * b)
  | Div, VInt a, VInt b -> VInt (a / b)
  | Rem, VInt a, VInt b -> VInt (a mod b)
  | Min, VInt a, VInt b -> VInt (min a b)
  | Max, VInt a, VInt b -> VInt (max a b)
  | Add, VFloat a, VFloat b -> VFloat (a +. b)
  | Sub, VFloat a, VFloat b -> VFloat (a -. b)
  | Mul, VFloat a, VFloat b -> VFloat (a *. b)
  | Div, VFloat a, VFloat b -> VFloat (a /. b)
  | Rem, VFloat a, VFloat b -> VFloat (Float.rem a b)
  | Min, VFloat a, VFloat b -> VFloat (Float.min a b)
  | Max, VFloat a, VFloat b -> VFloat (Float.max a b)
  | And, VBool a, VBool b -> VBool (a && b)
  | Or, VBool a, VBool b -> VBool (a || b)
  | _ -> err "interp: ill-typed binary operation"

let eval_cmp op v1 v2 =
  let open Value in
  match (op, v1, v2) with
  | CEq, VInt a, VInt b -> VBool (a = b)
  | CLt, VInt a, VInt b -> VBool (a < b)
  | CLe, VInt a, VInt b -> VBool (a <= b)
  | CEq, VFloat a, VFloat b -> VBool (a = b)
  | CLt, VFloat a, VFloat b -> VBool (a < b)
  | CLe, VFloat a, VFloat b -> VBool (a <= b)
  | CEq, VBool a, VBool b -> VBool (a = b)
  | _ -> err "interp: ill-typed comparison"

let eval_un op v =
  let open Value in
  match (op, v) with
  | Neg, VInt a -> VInt (-a)
  | Neg, VFloat a -> VFloat (-.a)
  | Abs, VInt a -> VInt (abs a)
  | Abs, VFloat a -> VFloat (Float.abs a)
  | Sqrt, VFloat a -> VFloat (sqrt a)
  | Exp, VFloat a -> VFloat (exp a)
  | Log, VFloat a -> VFloat (log a)
  | Not, VBool a -> VBool (not a)
  | ToF64, VInt a -> VFloat (float_of_int a)
  | ToI64, VFloat a -> VInt (int_of_float a)
  | _ -> err "interp: ill-typed unary operation"

(* ---------------------------------------------------------------- *)
(* Slices                                                            *)
(* ---------------------------------------------------------------- *)

(* The flat destination offsets and logical (cardinal-space) shape
   denoted by a slice of an array with concrete [shape].  Offsets are
   produced in row-major order of the slice's logical index space. *)
let slice_offsets env slc shape : int list * int list =
  match slc with
  | STriplet sds ->
      let per_dim =
        List.map
          (function
            | SFix i -> [ eval_idx env i ]
            | SRange { start; len; step } ->
                let s = eval_idx env start
                and n = eval_idx env len
                and k = eval_idx env step in
                List.init n (fun j -> s + (j * k)))
          sds
      in
      let logical_shape =
        List.concat
          (List.map2
             (fun sd coords ->
               match sd with SFix _ -> [] | SRange _ -> [ List.length coords ])
             sds per_dim)
      in
      let rec cart = function
        | [] -> [ [] ]
        | cs :: rest ->
            let inner = cart rest in
            List.concat
              (List.map (fun c -> List.map (fun t -> c :: t) inner) cs)
      in
      let offsets =
        List.map (Value.flatten_index shape) (cart per_dim)
      in
      (offsets, logical_shape)
  | SLmad l ->
      let envf v = Value.to_int (lookup env v) in
      let offsets = Lmads.Lmad.eval_points envf l in
      let logical_shape =
        List.map (P.eval envf) (Lmads.Lmad.shape l)
      in
      (offsets, logical_shape)

let check_slice_bounds name offsets total =
  List.iter
    (fun o ->
      if o < 0 || o >= total then
        err "interp: slice offset %d out of bounds for %s (size %d)" o name
          total)
    offsets

(* Dynamic check from section III-B: an LMAD update must touch distinct
   locations, otherwise it would have output dependences. *)
let check_disjoint_offsets name offsets =
  let tbl = Hashtbl.create (List.length offsets) in
  List.iter
    (fun o ->
      if Hashtbl.mem tbl o then
        err "interp: LMAD update on %s writes offset %d twice" name o;
      Hashtbl.add tbl o ())
    offsets

(* ---------------------------------------------------------------- *)
(* Expressions                                                       *)
(* ---------------------------------------------------------------- *)

(* [mems] counts the memory blocks this run has allocated: block ids are
   numbered per run, so a run depends on its program and arguments
   alone. *)
let rec eval_exp mems env (e : exp) : Value.t list =
  match e with
  | EAtom a -> [ eval_atom env a ]
  | EBin (op, a, b) -> [ eval_bin op (eval_atom env a) (eval_atom env b) ]
  | ECmp (op, a, b) -> [ eval_cmp op (eval_atom env a) (eval_atom env b) ]
  | EUn (op, a) -> [ eval_un op (eval_atom env a) ]
  | EIdx i -> [ Value.VInt (eval_idx env i) ]
  | EIndex (v, idxs) ->
      let a = lookup_arr env v in
      let is = List.map (eval_idx env) idxs in
      List.iter2
        (fun i n -> if i < 0 || i >= n then err "interp: %s[%d] out of bounds (dim %d)" v i n)
        is a.shape;
      [ Value.get_flat a (Value.flatten_index a.shape is) ]
  | ESlice (v, slc) ->
      let a = lookup_arr env v in
      let offsets, logical_shape = slice_offsets env slc a.shape in
      check_slice_bounds v offsets (Value.count a.shape);
      let out = Value.zeros a.elt logical_shape in
      List.iteri (fun i o -> Value.set_flat out i (Value.get_flat a o)) offsets;
      [ Value.VArr out ]
  | ETranspose (v, perm) ->
      let a = lookup_arr env v in
      let new_shape = List.map (List.nth a.shape) perm in
      let out = Value.zeros a.elt new_shape in
      (* transpose by iterating over the destination index space *)
      List.iteri
        (fun i idxs ->
          let src_idxs_arr = Array.make (List.length a.shape) 0 in
          List.iteri (fun k p -> src_idxs_arr.(p) <- List.nth idxs k) perm;
          Value.set_flat out i
            (Value.get_flat a
               (Value.flatten_index a.shape (Array.to_list src_idxs_arr))))
        (Value.indices new_shape);
      [ Value.VArr out ]
  | EReshape (v, new_shape) ->
      let a = lookup_arr env v in
      let shape = List.map (eval_idx env) new_shape in
      if Value.count shape <> Value.count a.shape then
        err "interp: reshape size mismatch on %s" v;
      [ Value.VArr { (Value.copy_arr a) with shape } ]
  | EReverse (v, d) ->
      let a = lookup_arr env v in
      let out = Value.zeros a.elt a.shape in
      let nd = List.nth a.shape d in
      List.iteri
        (fun i idxs ->
          let src = List.mapi (fun k x -> if k = d then nd - 1 - x else x) idxs in
          Value.set_flat out i
            (Value.get_flat a (Value.flatten_index a.shape src)))
        (Value.indices a.shape);
      [ Value.VArr out ]
  | EIota n ->
      let n = eval_idx env n in
      [ Value.VArr (Value.of_ints [ n ] (Array.init n Fun.id)) ]
  | EReplicate (shape, a) ->
      let shape = List.map (eval_idx env) shape in
      let v = eval_atom env a in
      let elt =
        match v with
        | Value.VInt _ -> I64
        | Value.VFloat _ -> F64
        | Value.VBool _ -> Bool
        | _ -> err "interp: replicate of non-scalar"
      in
      let out = Value.zeros elt shape in
      for i = 0 to Value.count shape - 1 do
        Value.set_flat out i v
      done;
      [ Value.VArr out ]
  | EScratch (s, shape) ->
      [ Value.VArr (Value.zeros s (List.map (eval_idx env) shape)) ]
  | ECopy v -> [ Value.VArr (Value.copy_arr (lookup_arr env v)) ]
  | EConcat vs ->
      let arrs = List.map (lookup_arr env) vs in
      let first = List.hd arrs in
      let inner = List.tl first.shape in
      let total =
        List.fold_left (fun acc (a : Value.arr) -> acc + List.hd a.shape) 0 arrs
      in
      let out = Value.zeros first.elt (total :: inner) in
      let pos = ref 0 in
      List.iter
        (fun (a : Value.arr) ->
          let n = Value.count a.shape in
          for i = 0 to n - 1 do
            Value.set_flat out (!pos + i) (Value.get_flat a i)
          done;
          pos := !pos + n)
        arrs;
      [ Value.VArr out ]
  | EUpdate { dst; slc; src } -> (
      let a = Value.copy_arr (lookup_arr env dst) in
      let offsets, logical_shape = slice_offsets env slc a.shape in
      check_slice_bounds dst offsets (Value.count a.shape);
      (match slc with
      | SLmad _ -> check_disjoint_offsets dst offsets
      | STriplet _ -> ());
      match src with
      | SrcScalar s ->
          let v = eval_atom env s in
          List.iter (fun o -> Value.set_flat a o v) offsets;
          [ Value.VArr a ]
      | SrcArr sv ->
          let s = lookup_arr env sv in
          if Value.count s.shape <> List.length offsets then
            err "interp: update size mismatch on %s (%d vs %d)" dst
              (Value.count s.shape) (List.length offsets);
          ignore logical_shape;
          List.iteri (fun i o -> Value.set_flat a o (Value.get_flat s i)) offsets;
          [ Value.VArr a ])
  | EMap { nest; body } ->
      let dims = List.map (fun (_, n) -> eval_idx env n) nest in
      let points = Value.indices dims in
      let results =
        List.map
          (fun point ->
            let env' =
              List.fold_left2
                (fun acc (v, _) i -> SM.add v (Value.VInt i) acc)
                env nest point
            in
            eval_block mems env' body)
          points
      in
      (* Assemble one output array per body result. *)
      let arity =
        match results with
        | r :: _ -> List.length r
        | [] -> (
            (* empty index space: infer arity from the body result list *)
            List.length body.res)
      in
      List.init arity (fun k ->
          let kth = List.map (fun r -> List.nth r k) results in
          match kth with
          | [] -> Value.VArr (Value.zeros F64 (dims @ [ 0 ]))
          | first :: _ ->
              let inner_shape, elt =
                match first with
                | Value.VArr a -> (a.shape, a.elt)
                | Value.VInt _ -> ([], I64)
                | Value.VFloat _ -> ([], F64)
                | Value.VBool _ -> ([], Bool)
                | Value.VMem _ -> err "interp: mapnest returning memory"
              in
              let out = Value.zeros elt (dims @ inner_shape) in
              let inner_count = Value.count inner_shape in
              List.iteri
                (fun i v ->
                  match v with
                  | Value.VArr a ->
                      for j = 0 to inner_count - 1 do
                        Value.set_flat out ((i * inner_count) + j)
                          (Value.get_flat a j)
                      done
                  | v -> Value.set_flat out i v)
                kth;
              Value.VArr out)
  | EReduce { op; ne; arr } ->
      let a = lookup_arr env arr in
      let acc = ref (eval_atom env ne) in
      for i = 0 to Value.count a.shape - 1 do
        acc := eval_bin op !acc (Value.get_flat a i)
      done;
      [ !acc ]
  | EArgmin arr ->
      let a = lookup_arr env arr in
      let n = Value.count a.shape in
      if n = 0 then err "interp: argmin of empty array";
      let best = ref (Value.to_float (Value.get_flat a 0)) in
      let besti = ref 0 in
      for i = 1 to n - 1 do
        let x = Value.to_float (Value.get_flat a i) in
        if x < !best then (
          best := x;
          besti := i)
      done;
      [ Value.VFloat !best; Value.VInt !besti ]
  | ELoop { params; var; bound; body } ->
      let n = eval_idx env bound in
      let init = List.map (fun (_, a) -> eval_atom env a) params in
      let rec go i vals =
        if i >= n then vals
        else
          let env' =
            List.fold_left2
              (fun acc (pe, _) v -> SM.add pe.pv v acc)
              env params vals
          in
          let env' = SM.add var (Value.VInt i) env' in
          go (i + 1) (eval_block mems env' body)
      in
      go 0 init
  | EIf { cond; tb; fb } ->
      if Value.to_bool (eval_atom env cond) then eval_block mems env tb
      else eval_block mems env fb
  | EAlloc _ ->
      incr mems;
      [ Value.VMem !mems ]

and eval_block mems env (b : block) : Value.t list =
  let env =
    List.fold_left
      (fun env s ->
        let vals = eval_exp mems env s.exp in
        if List.length vals <> List.length s.pat then
          err "interp: arity mismatch in %s" (Pretty.exp_to_string s.exp);
        List.fold_left2 (fun env pe v -> SM.add pe.pv v env) env s.pat vals)
      env b.stms
  in
  List.map (eval_atom env) b.res

(* Run a program on the given argument values (in parameter order). *)
let run (p : prog) (args : Value.t list) : Value.t list =
  if List.length args <> List.length p.params then
    err "interp: %s expects %d arguments" p.name (List.length p.params);
  let env =
    List.fold_left2
      (fun env pe v -> SM.add pe.pv v env)
      SM.empty p.params args
  in
  eval_block (ref 0) env p.body
