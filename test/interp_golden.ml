(* Golden record of the reference interpreter: every paper program run
   by [Ir.Interp] at the small arguments [repro validate] uses.  Each
   result prints its element type, shape, element count and the MD5 of
   its elements' bits (floats by [Int64.bits_of_float], so any change
   in any bit shows).  Dune diffs the output against
   [interp_golden.expected]; an interpreter change that is meant to
   keep the semantics must leave that file byte-identical. *)

module B = Benchsuite
module V = Ir.Value

(* Eight bytes per element: a float's IEEE bits, an integer's value, a
   boolean as 0 or 1. *)
let digest (a : V.arr) =
  let buf = Buffer.create (8 * V.count a.shape) in
  let add x = Buffer.add_int64_le buf x in
  (match a.data with
  | V.DF d -> Array.iter (fun x -> add (Int64.bits_of_float x)) d
  | V.DI d -> Array.iter (fun x -> add (Int64.of_int x)) d
  | V.DB d -> Array.iter (fun x -> add (if x then 1L else 0L)) d);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let elt = function Ir.Ast.F64 -> "f64" | I64 -> "i64" | Bool -> "bool"

let print_value = function
  | V.VArr a ->
      Printf.printf "  %s[%s] %d %s\n" (elt a.elt)
        (String.concat "," (List.map string_of_int a.shape))
        (V.count a.shape) (digest a)
  | V.VFloat x -> Printf.printf "  f64 %Lx\n" (Int64.bits_of_float x)
  | V.VInt x -> Printf.printf "  i64 %d\n" x
  | V.VBool x -> Printf.printf "  bool %b\n" x
  | V.VMem _ -> print_string "  mem\n"

let () =
  List.iter
    (fun { B.Runner.name; prog; small_args; _ } ->
      let results = Ir.Interp.run prog (small_args ()) in
      Printf.printf "%s %d result(s)\n" name (List.length results);
      List.iter print_value results)
    B.Suite.all
