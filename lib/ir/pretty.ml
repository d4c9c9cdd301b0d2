(* Pretty-printing of the IR, in a notation close to the paper's:

     let (x : [n][m]f64 @ x_mem -> 0 + {(n : m), (m : 1)}) = copy y

   Memory annotations print only when present, so the same printer
   serves the pure and the memory-augmented stages. *)

open Ast
module P = Symalg.Poly

let pp_sct ppf = function
  | I64 -> Fmt.string ppf "i64"
  | F64 -> Fmt.string ppf "f64"
  | Bool -> Fmt.string ppf "bool"

let pp_idx = P.pp

let pp_typ ppf = function
  | TScalar s -> pp_sct ppf s
  | TArr (s, shape) ->
      List.iter (fun d -> Fmt.pf ppf "[%a]" pp_idx d) shape;
      pp_sct ppf s
  | TMem -> Fmt.string ppf "mem"

(* The shortest of 15, 16 or 17 significant digits that reads back as
   the same double, so programs differing in a constant print
   differently. *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let pp_atom ppf = function
  | Var v -> Fmt.string ppf v
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%sf" (float_repr f)
  | Bool b -> Fmt.bool ppf b

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Min -> "`min`"
  | Max -> "`max`"
  | And -> "&&"
  | Or -> "||"

let cmpop_str = function CEq -> "==" | CLt -> "<" | CLe -> "<="

let unop_str = function
  | Neg -> "neg"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Abs -> "abs"
  | Not -> "!"
  | ToF64 -> "f64"
  | ToI64 -> "i64"

let pp_slice_dim ppf = function
  | SFix i -> pp_idx ppf i
  | SRange { start; len; step } ->
      Fmt.pf ppf "%a :+ %a : %a" pp_idx start pp_idx len pp_idx step

let pp_slice ppf = function
  | STriplet sds -> Fmt.(list ~sep:comma pp_slice_dim) ppf sds
  | SLmad l -> Lmads.Lmad.pp ppf l

let pp_mem ppf = function
  | None -> ()
  | Some { block; ixfn } ->
      Fmt.pf ppf " @ %s -> %a" block Lmads.Ixfn.pp ixfn

let pp_pat_elem ppf pe =
  Fmt.pf ppf "%s : %a%a" pe.pv pp_typ pe.pt pp_mem pe.pmem

let pp_pat ppf = function
  | [ pe ] -> pp_pat_elem ppf pe
  | pes -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp_pat_elem) pes

let rec pp_exp ppf = function
  | EAtom a -> pp_atom ppf a
  | EBin (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_atom a (binop_str op) pp_atom b
  | ECmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_atom a (cmpop_str op) pp_atom b
  | EUn (op, a) -> Fmt.pf ppf "%s %a" (unop_str op) pp_atom a
  | EIdx i -> Fmt.pf ppf "idx(%a)" pp_idx i
  | EIndex (v, idxs) -> Fmt.pf ppf "%s[%a]" v Fmt.(list ~sep:comma pp_idx) idxs
  | ESlice (v, slc) -> Fmt.pf ppf "%s[%a]" v pp_slice slc
  | ETranspose (v, perm) ->
      Fmt.pf ppf "transpose(%s, [%a])" v Fmt.(list ~sep:comma int) perm
  | EReshape (v, shape) ->
      Fmt.pf ppf "reshape(%s, [%a])" v Fmt.(list ~sep:comma pp_idx) shape
  | EReverse (v, d) -> Fmt.pf ppf "reverse(%s, %d)" v d
  | EIota i -> Fmt.pf ppf "iota %a" pp_idx i
  | EReplicate (shape, a) ->
      Fmt.pf ppf "replicate [%a] %a" Fmt.(list ~sep:comma pp_idx) shape pp_atom a
  | EScratch (s, shape) ->
      Fmt.pf ppf "scratch %a [%a]" pp_sct s Fmt.(list ~sep:comma pp_idx) shape
  | ECopy v -> Fmt.pf ppf "copy %s" v
  | EConcat vs -> Fmt.pf ppf "concat %a" Fmt.(list ~sep:sp string) vs
  | EUpdate { dst; slc; src } ->
      let pp_src ppf = function
        | SrcArr v -> Fmt.string ppf v
        | SrcScalar a -> pp_atom ppf a
      in
      Fmt.pf ppf "%s with [%a] = %a" dst pp_slice slc pp_src src
  | EMap { nest; body } ->
      Fmt.pf ppf "@[<v 2>mapnest (%a)@,%a@]"
        Fmt.(
          list ~sep:comma (fun ppf (v, n) -> pf ppf "%s < %a" v pp_idx n))
        nest pp_block body
  | EReduce { op; ne; arr } ->
      Fmt.pf ppf "reduce (%s) %a %s" (binop_str op) pp_atom ne arr
  | EArgmin v -> Fmt.pf ppf "argmin %s" v
  | ELoop { params; var; bound; body } ->
      Fmt.pf ppf "@[<v 2>loop (%a) = (%a) for %s < %a do@,%a@]"
        Fmt.(list ~sep:comma (fun ppf (pe, _) -> pp_pat_elem ppf pe))
        params
        Fmt.(list ~sep:comma (fun ppf (_, a) -> pp_atom ppf a))
        params var pp_idx bound pp_block body
  | EIf { cond; tb; fb } ->
      Fmt.pf ppf "@[<v 2>if %a@,@[<v 2>then@,%a@]@,@[<v 2>else@,%a@]@]"
        pp_atom cond pp_block tb pp_block fb
  | EAlloc size -> Fmt.pf ppf "alloc(%a)" pp_idx size

and pp_stm ppf s =
  let lu =
    if s.last_uses = [] then ""
    else Fmt.str " -- last use of: %s" (String.concat ", " s.last_uses)
  in
  Fmt.pf ppf "@[<hv 2>let %a =@ %a@]%s" pp_pat s.pat pp_exp s.exp lu

and pp_block ppf b =
  Fmt.pf ppf "@[<v>%a@,in (%a)@]"
    Fmt.(list ~sep:cut pp_stm)
    b.stms
    Fmt.(list ~sep:comma pp_atom)
    b.res

let pp_prog ppf (p : prog) =
  Fmt.pf ppf "@[<v 2>def %s (%a) : (%a) =@,%a@]" p.name
    Fmt.(list ~sep:comma pp_pat_elem)
    p.params
    Fmt.(list ~sep:comma pp_typ)
    p.ret pp_block p.body

let prog_to_string p = Fmt.str "%a" pp_prog p
let block_to_string b = Fmt.str "%a" pp_block b
let exp_to_string e = Fmt.str "%a" pp_exp e
