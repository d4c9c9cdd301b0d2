(* Fresh name generation for IR variables.

   All compiler passes assume distinct binder names program-wide;
   [fresh] guarantees this by suffixing a counter.  Program
   construction (builders, the frontend) draws from one process-wide
   counter; a pass draws from a supply seeded by its own input program
   ([within]), so what it prints depends on that input alone. *)

let counter = ref 0

let fresh base =
  incr counter;
  Printf.sprintf "%s_%d" base !counter

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

(* The largest numeric suffix of any name [p] binds, annotates or takes
   as a parameter (0 if none has one).  Every name a well-formed
   program mentions is one of these. *)
let largest_suffix (p : Ast.prog) =
  let m = ref 0 in
  let see v = match split v with Some (_, n) -> m := max !m n | None -> () in
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
  !m

let within p f =
  let saved = !counter in
  counter := largest_suffix p;
  Fun.protect ~finally:(fun () -> counter := saved) f
