(* Fresh name generation for IR variables.

   All compiler passes assume distinct binder names program-wide; a
   supply guarantees this by suffixing a counter.  There is no
   process-wide supply: a program under construction owns one (its
   builder's), and a pass seeds its own from its input program, so
   every name depends on that program alone. *)

type supply = { mutable last : int }

let fresh s base =
  s.last <- s.last + 1;
  Printf.sprintf "%s_%d" base s.last

(* [name] split at its trailing "_<digits>", if it has one. *)
let split name =
  match String.rindex_opt name '_' with
  | Some i when i > 0 && i < String.length name - 1 -> (
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      match int_of_string_opt suffix with
      | Some n when String.for_all (fun c -> c >= '0' && c <= '9') suffix ->
          Some (String.sub name 0 i, n)
      | _ -> None)
  | _ -> None

(* The base of a generated name (text before the trailing counter). *)
let base name = match split name with Some (b, _) -> b | None -> name

(* Raise [s] to [v]'s numeric suffix, if [v] has one. *)
let see s v =
  match split v with Some (_, n) -> s.last <- max s.last n | None -> ()

let above names =
  let s = { last = 0 } in
  List.iter (see s) names;
  s

let of_prog (p : Ast.prog) =
  let s = above [] in
  let see = see s in
  let see_pe (pe : Ast.pat_elem) =
    see pe.pv;
    Option.iter
      (fun (mi : Ast.mem_info) ->
        see mi.block;
        List.iter see (Lmads.Ixfn.vars mi.ixfn))
      pe.pmem
  in
  List.iter see_pe p.params;
  List.iter
    (fun (s : Ast.stm) ->
      List.iter see_pe s.pat;
      match s.exp with
      | EMap { nest; _ } -> List.iter (fun (v, _) -> see v) nest
      | ELoop { params; var; _ } ->
          see var;
          List.iter (fun (pe, _) -> see_pe pe) params
      | _ -> ())
    (Ast.all_stms_block p.body);
  s
