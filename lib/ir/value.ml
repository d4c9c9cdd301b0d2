(* Runtime values for the reference interpreter.

   Arrays are always materialized flat in row-major order: the reference
   semantics is purely functional and memory-agnostic, so change-of-
   layout operations copy eagerly.  The memory-aware executor in the
   [gpu] library is the one that honours index functions. *)

open Ast

type data =
  | DF of float array
  | DI of int array
  | DB of bool array

type arr = { elt : sct; shape : int list; data : data }

type t =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VArr of arr
  | VMem of int (* opaque memory-block token; semantically inert *)

let count shape = List.fold_left ( * ) 1 shape

let zeros elt shape =
  let n = count shape in
  let data =
    match elt with
    | F64 -> DF (Array.make n 0.0)
    | I64 -> DI (Array.make n 0)
    | Bool -> DB (Array.make n false)
  in
  { elt; shape; data }

let of_floats shape xs = { elt = F64; shape; data = DF xs }
let of_ints shape xs = { elt = I64; shape; data = DI xs }

(* A shape-only array carrying no payload: used as input to cost-only
   executions at paper-scale sizes, where materializing the data (tens
   of gigabytes) would be pointless. *)
let shell elt shape =
  let data =
    match elt with F64 -> DF [||] | I64 -> DI [||] | Bool -> DB [||]
  in
  { elt; shape; data }

let get_flat a i =
  match a.data with
  | DF d -> VFloat d.(i)
  | DI d -> VInt d.(i)
  | DB d -> VBool d.(i)

let set_flat a i v =
  match (a.data, v) with
  | DF d, VFloat x -> d.(i) <- x
  | DI d, VInt x -> d.(i) <- x
  | DB d, VBool x -> d.(i) <- x
  | _ -> invalid_arg "Value.set_flat: element type mismatch"

let copy_arr a =
  let data =
    match a.data with
    | DF d -> DF (Array.copy d)
    | DI d -> DI (Array.copy d)
    | DB d -> DB (Array.copy d)
  in
  { a with data }

(* Row-major rank of a multi-index. *)
let flatten_index shape idxs =
  List.fold_left2 (fun acc n i -> (acc * n) + i) 0 shape idxs

(* All multi-indices of [shape] in row-major order. *)
let indices shape =
  let rec go = function
    | [] -> [ [] ]
    | n :: rest ->
        let inner = go rest in
        List.concat (List.init n (fun i -> List.map (fun t -> i :: t) inner))
  in
  go shape

let to_float = function
  | VFloat f -> f
  | VInt i -> float_of_int i
  | _ -> invalid_arg "Value.to_float"

let to_int = function VInt i -> i | _ -> invalid_arg "Value.to_int"
let to_bool = function VBool b -> b | _ -> invalid_arg "Value.to_bool"

let float_data a =
  match a.data with DF d -> d | _ -> invalid_arg "Value.float_data"

let int_data a =
  match a.data with DI d -> d | _ -> invalid_arg "Value.int_data"

(* Structural equality with a tolerance for floats (used to compare the
   output of the optimized pipeline against the reference). *)
let rec approx_equal ?(eps = 1e-9) v1 v2 =
  match (v1, v2) with
  | VInt a, VInt b -> a = b
  | VBool a, VBool b -> a = b
  | VFloat a, VFloat b ->
      let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
      Float.abs (a -. b) <= eps *. scale
  | VArr a, VArr b ->
      a.elt = b.elt && a.shape = b.shape
      &&
      let n = count a.shape in
      let rec go i =
        i >= n || (approx_equal ~eps (get_flat a i) (get_flat b i) && go (i + 1))
      in
      go 0
  | VMem _, VMem _ -> true
  | _ -> false

(* Exact equality: floats compare by their bits, so -0.0 differs from
   0.0 and a NaN equals itself, where structural [=] says the
   opposite of both. *)
let bit_equal v1 v2 =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  match (v1, v2) with
  | VFloat a, VFloat b -> same a b
  | VArr ({ data = DF x; _ } as a), VArr ({ data = DF y; _ } as b) ->
      a.elt = b.elt && a.shape = b.shape
      && Array.length x = Array.length y
      && Array.for_all2 same x y
  | _ -> v1 = v2

let pp ppf = function
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.float ppf f
  | VBool b -> Fmt.bool ppf b
  | VMem i -> Fmt.pf ppf "<mem%d>" i
  | VArr a ->
      let n = count a.shape in
      let elems = List.init (min n 16) (fun i -> get_flat a i) in
      Fmt.pf ppf "[%dd array %a%s]" (List.length a.shape)
        Fmt.(list ~sep:comma (fun ppf v ->
            match v with
            | VFloat f -> Fmt.float ppf f
            | VInt i -> Fmt.int ppf i
            | VBool b -> Fmt.bool ppf b
            | _ -> Fmt.string ppf "?"))
        elems
        (if n > 16 then ", ..." else "")
