(* The reference interpreter: purely functional semantics, memory
   annotations ignored.  It is the ground truth all compiler passes are
   validated against: a transformed program must produce
   [Value.bit_equal] results here AND on the memory-aware executor.
   Every view materializes and every update copies.

   Validation, chaos and benchmark set-up all run it, so it is staged.
   [run] walks the program once with its lexical scope, gives every
   binder occurrence its own slot in one frame, and compiles each index
   polynomial to a sum of products over slots and each statement to a
   closure over the frame; evaluation looks no name up and builds no
   environment.  Frame and closures live for one run.  The executor
   resolves names its own way, so the two cannot share a bug there. *)

open Ast
module P = Symalg.Poly
module Lmad = Lmads.Lmad
module SM = Map.Make (String)

exception Runtime_error of string

let err fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

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
(* Names to slots                                                    *)
(* ---------------------------------------------------------------- *)

type frame = Value.t array

(* A run's staging state: slots handed out, and memory blocks
   allocated (block ids are numbered per run, so a run depends on its
   program and arguments alone). *)
type st = { mutable slots : int; mutable mems : int }

(* Binds [v] to a fresh slot in scope [sc]. *)
let bind st sc v =
  st.slots <- st.slots + 1;
  (SM.add v (st.slots - 1) sc, st.slots - 1)

let binds st sc vs = List.fold_left_map (bind st) sc vs
let each fs fr = List.map (fun f -> f fr) fs

(* A name no binder in scope defines raises when it is evaluated. *)
let var sc v : frame -> Value.t =
  match SM.find_opt v sc with
  | Some i -> fun fr -> fr.(i)
  | None -> fun _ -> err "interp: unbound variable %s" v

let read conv sc v =
  let get = var sc v in
  fun fr -> conv v (get fr)

let arr =
  read (fun v -> function
    | Value.VArr a -> a
    | _ -> err "interp: %s is not an array" v)

let atom sc = function
  | Var v -> var sc v
  | Int i -> Fun.const (Value.VInt i)
  | Float f -> Fun.const (Value.VFloat f)
  | Bool b -> Fun.const (Value.VBool b)

(* [p] as a sum of products, [int_of v] reading variable [v] in
   [P.eval]'s order. *)
let poly int_of (p : P.t) : frame -> int =
  let power (v, e) = List.init e (fun _ -> int_of v) in
  match
    List.map (fun (m : P.mono) -> (m.coeff, List.concat_map power m.pows))
      (P.monos p)
  with
  | [ (1, [ x ]) ] -> x
  | ms ->
      fun fr ->
        List.fold_left
          (fun acc (c, xs) -> acc + List.fold_left (fun a x -> a * x fr) c xs)
          0 ms

let idx sc =
  poly
    (read
       (fun v -> function
         | Value.VInt x -> x
         | _ -> err "interp: index variable %s is not an integer" v)
       sc)

(* ---------------------------------------------------------------- *)
(* Slices                                                            *)
(* ---------------------------------------------------------------- *)

(* The flat destination offsets and logical (cardinal-space) shape
   denoted by a slice of an array with concrete [shape].  Offsets are
   produced in row-major order of the slice's logical index space. *)
let slice_offsets sc slc : frame -> int list -> int list * int list =
  match slc with
  | STriplet sds ->
      let sds =
        List.map
          (function
            | SFix i -> (false, idx sc i, Fun.const 1, Fun.const 0)
            | SRange { start; len; step } ->
                (true, idx sc start, idx sc len, idx sc step))
          sds
      in
      fun fr shape ->
        let coords (range, s, n, k) =
          let s = s fr and n = n fr and k = k fr in
          (range, List.init n (fun j -> s + (j * k)))
        in
        let per_dim = List.map coords sds in
        (* each point's [Value.flatten_index] *)
        let rec offsets acc = function
          | n :: shape, (_, cs) :: dims ->
              List.concat_map (fun c -> offsets ((acc * n) + c) (shape, dims)) cs
          | [], [] -> [ acc ]
          | _ -> invalid_arg "List.fold_left2"
        in
        ( offsets 0 (shape, per_dim),
          List.filter_map
            (fun (range, cs) -> if range then Some (List.length cs) else None)
            per_dim )
  | SLmad l ->
      let poly = poly (read (fun _ -> Value.to_int) sc) in
      let off = poly (Lmad.offset l)
      and dims = List.map (fun (d : Lmad.dim) -> (poly d.n, poly d.s)) (Lmad.dims l) in
      fun fr _ ->
        let cdims = List.map (fun (n, s) -> (n fr, s fr)) dims in
        (Lmad.concrete_points { Lmad.coff = off fr; cdims }, List.map fst cdims)

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

(* [e] in scope [sc], staged to a closure over the frame; [pat] is the
   pattern of [e]'s statement. *)
let rec exp st sc pat (e : exp) : frame -> Value.t list =
  let atom = atom sc and idx = idx sc in
  let on v f =
    let arr = arr sc v in
    fun fr -> f fr (arr fr)
  in
  let binary f a b =
    let a = atom a and b = atom b in
    fun fr -> [ f (a fr) (b fr) ]
  in
  match e with
  | EAtom a ->
      let a = atom a in
      fun fr -> [ a fr ]
  | EBin (op, a, b) -> binary (eval_bin op) a b
  | ECmp (op, a, b) -> binary (eval_cmp op) a b
  | EUn (op, a) ->
      let a = atom a in
      fun fr -> [ eval_un op (a fr) ]
  | EIdx i ->
      let i = idx i in
      fun fr -> [ Value.VInt (i fr) ]
  | EIndex (v, idxs) ->
      let idxs = List.map idx idxs in
      on v @@ fun fr a ->
        let is = each idxs fr in
        List.iter2
          (fun i n ->
            if i < 0 || i >= n then
              err "interp: %s[%d] out of bounds (dim %d)" v i n)
          is a.shape;
        [ Value.get_flat a (Value.flatten_index a.shape is) ]
  | ESlice (v, slc) ->
      let slice_offsets = slice_offsets sc slc in
      on v @@ fun fr a ->
        let offsets, logical_shape = slice_offsets fr a.shape in
        check_slice_bounds v offsets (Value.count a.shape);
        let out = Value.zeros a.elt logical_shape in
        List.iteri (fun i o -> Value.set_flat out i (Value.get_flat a o)) offsets;
        [ Value.VArr out ]
  | ETranspose (v, perm) ->
      on v @@ fun _ a ->
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
      let new_shape = List.map idx new_shape in
      on v @@ fun fr a ->
        let shape = each new_shape fr in
        if Value.count shape <> Value.count a.shape then
          err "interp: reshape size mismatch on %s" v;
        [ Value.VArr { (Value.copy_arr a) with shape } ]
  | EReverse (v, d) ->
      on v @@ fun _ a ->
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
      let n = idx n in
      fun fr ->
        let n = n fr in
        [ Value.VArr (Value.of_ints [ n ] (Array.init n Fun.id)) ]
  | EReplicate (shape, a) ->
      let shape = List.map idx shape and a = atom a in
      fun fr ->
        let shape = each shape fr in
        let v = a fr in
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
      let shape = List.map idx shape in
      fun fr -> [ Value.VArr (Value.zeros s (each shape fr)) ]
  | ECopy v -> on v (fun _ a -> [ Value.VArr (Value.copy_arr a) ])
  | EConcat vs ->
      let arrs = List.map (arr sc) vs in
      fun fr ->
        let arrs = each arrs fr in
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
  | EUpdate { dst; slc; src } ->
      let slice_offsets = slice_offsets sc slc in
      let write =
        match src with
        | SrcScalar s ->
            let s = atom s in
            fun fr a offsets ->
              let v = s fr in
              List.iter (fun o -> Value.set_flat a o v) offsets
        | SrcArr sv ->
            on sv @@ fun _ s a offsets ->
              if Value.count s.shape <> List.length offsets then
                err "interp: update size mismatch on %s (%d vs %d)" dst
                  (Value.count s.shape) (List.length offsets);
              List.iteri (fun i o -> Value.set_flat a o (Value.get_flat s i)) offsets
      in
      on dst @@ fun fr a ->
        let a = Value.copy_arr a in
        let offsets, _ = slice_offsets fr a.shape in
        check_slice_bounds dst offsets (Value.count a.shape);
        (match slc with
        | SLmad _ -> check_disjoint_offsets dst offsets
        | STriplet _ -> ());
        write fr a offsets;
        [ Value.VArr a ]
  | EMap { nest; body } ->
      let counts = List.map (fun (_, n) -> idx n) nest in
      let sc', slots = binds st sc (List.map fst nest) in
      let slots = Array.of_list slots and arity = List.length body.res in
      let body = block st sc' body in
      (* An empty index space takes each result's element type and shape
         from the statement's pattern. *)
      let empty =
        List.init arity (fun k ->
            match List.nth_opt pat k with
            | Some { pt = TArr (elt, shape); _ } ->
                let shape = List.map idx shape in
                fun fr _ -> Value.VArr (Value.zeros elt (each shape fr))
            | _ -> fun _ dims -> Value.VArr (Value.zeros F64 (dims @ [ 0 ])))
      in
      fun fr ->
        let dims = each counts fr in
        if List.exists (fun n -> n < 0) dims then invalid_arg "List.init";
        if Value.count dims = 0 then List.map (fun f -> f fr dims) empty
        else
          (* the body at each point, in row-major order *)
          let rec go d = function
            | [] -> [ body fr ]
            | n :: rest ->
                List.concat
                  (List.init n (fun i ->
                       fr.(slots.(d)) <- Value.VInt i;
                       go (d + 1) rest))
          in
          let results = go 0 dims in
          (* Assemble one output array per body result. *)
          List.init arity (fun k ->
              let kth = List.map (fun r -> List.nth r k) results in
              let inner_shape, elt =
                match List.hd kth with
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
      let ne = atom ne in
      on arr @@ fun fr a ->
        let acc = ref (ne fr) in
        for i = 0 to Value.count a.shape - 1 do
          acc := eval_bin op !acc (Value.get_flat a i)
        done;
        [ !acc ]
  | EArgmin v ->
      on v @@ fun _ a ->
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
      let n = idx bound and init = List.map (fun (_, a) -> atom a) params in
      let sc', pslots = binds st sc (List.map (fun (pe, _) -> pe.pv) params) in
      let sc', vslot = bind st sc' var in
      let body = block st sc' body in
      fun fr ->
        let n = n fr in
        let rec go i vals =
          if i >= n then vals
          else (
            List.iter2 (fun s v -> fr.(s) <- v) pslots vals;
            fr.(vslot) <- Value.VInt i;
            go (i + 1) (body fr))
        in
        go 0 (each init fr)
  | EIf { cond; tb; fb } ->
      let cond = atom cond and tb = block st sc tb and fb = block st sc fb in
      fun fr -> if Value.to_bool (cond fr) then tb fr else fb fr
  | EAlloc _ ->
      fun _ ->
        st.mems <- st.mems + 1;
        [ Value.VMem st.mems ]

(* A statement writes its pattern's slots; the scope it returns has the
   pattern's names in it. *)
and stm st sc (s : stm) =
  let e = exp st sc s.pat s.exp in
  let sc, slots = binds st sc (List.map (fun pe -> pe.pv) s.pat) in
  let mismatch () =
    err "interp: arity mismatch in %s" (Pretty.exp_to_string s.exp)
  in
  ( sc,
    match slots with
    | [ i ] -> (
        fun fr -> match e fr with [ v ] -> fr.(i) <- v | _ -> mismatch ())
    | _ ->
        fun fr ->
          let vals = e fr in
          if List.length vals <> List.length slots then mismatch ();
          List.iter2 (fun i v -> fr.(i) <- v) slots vals )

and block st sc (b : block) : frame -> Value.t list =
  let sc, stms = List.fold_left_map (stm st) sc b.stms in
  let res = List.map (atom sc) b.res in
  fun fr ->
    List.iter (fun s -> s fr) stms;
    each res fr

(* Run a program on the given argument values (in parameter order).
   Each parameter's annotated block, which the memory passes' loops
   carry, is a fresh memory token. *)
let run (p : prog) (args : Value.t list) : Value.t list =
  if List.length args <> List.length p.params then
    err "interp: %s expects %d arguments" p.name (List.length p.params);
  let blocks = List.filter_map (fun pe -> pe.pmem) p.params in
  let st = { slots = 0; mems = List.length blocks } in
  let sc, slots =
    binds st SM.empty
      (List.map (fun m -> m.block) blocks @ List.map (fun pe -> pe.pv) p.params)
  in
  let body = block st sc p.body in
  let fr = Array.make st.slots (Value.VInt 0) in
  let tokens = List.mapi (fun k _ -> Value.VMem (k + 1)) blocks in
  List.iter2 (fun i v -> fr.(i) <- v) slots (tokens @ args);
  body fr
