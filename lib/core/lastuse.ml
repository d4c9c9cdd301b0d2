(* Last-use analysis (section V, footnote 18).

   Annotates each statement with the arrays whose last use it is: after
   a statement marked [last_uses = [b]], neither [b] nor any array in an
   alias relation with [b] is used on any execution path.

   Each block is walked backwards, carrying the set of variables used
   later.  Uses inside a compound statement (if, loop, mapnest) count
   as uses at the compound statement itself; in addition, inside loop
   and mapnest bodies every array that is free in the body is
   conservatively treated as used-after at all points of the body,
   because another iteration or thread may read it.  A loop parameter
   is used-after throughout the body too: it aliases the body's result.
   Body-local arrays still get precise last-use points (paper Fig. 5b:
   the iteration input [as] is lastly used at [f as] inside the body).

   After a walk that records every binder's type, two passes visit
   each statement once each, whatever the nesting depth.  The
   bottom-up pass computes each statement's free variables, taking
   every nested block's from its own summary ({!Ir.Ast.fv_stm_with})
   and keeping only the names that can close to an array; from them it
   computes the statement's alias-closed array uses and, for a loop or
   mapnest, the arrays live throughout its body.  The top-down pass
   assigns [uses \ later]. *)

open Ir.Ast
module SS = Ir.Ast.SS

(* A statement's alias-closed array uses and its nested blocks, each
   with the arrays live throughout it. *)
type node = { stm : stm; uses : SS.t; subs : (SS.t * summary) list }

(* A block: its statements, last first, and the arrays its result
   uses. *)
and summary = { rev : node list; res_uses : SS.t }

(* Binder types, for the restriction to arrays. *)
let rec record_types types (b : block) =
  List.iter
    (fun s ->
      List.iter (fun pe -> Hashtbl.replace types pe.pv pe.pt) s.pat;
      match s.exp with
      | EMap { nest; body } ->
          List.iter (fun (v, _) -> Hashtbl.replace types v (TScalar I64)) nest;
          record_types types body
      | ELoop { params; body; var; _ } ->
          Hashtbl.replace types var (TScalar I64);
          List.iter (fun (pe, _) -> Hashtbl.replace types pe.pv pe.pt) params;
          record_types types body
      | EIf { tb; fb; _ } ->
          record_types types tb;
          record_types types fb
      | _ -> ())
    b.stms

(* Bottom-up.  [keep] drops the free variables that cannot add an
   array to an alias closure; [arrays] closes a set under aliasing and
   keeps its arrays.  Returns the block's free variables, as far as
   [keep] left them in its statements'. *)
let rec summarize ~keep ~arrays (b : block) : SS.t * summary =
  let rev = ref [] in
  let fv =
    fv_block_with
      (fun s ->
        let fv, n = node ~keep ~arrays s in
        rev := n :: !rev;
        fv)
      b
  in
  let res = SS.of_list (List.filter_map atom_var b.res) in
  (fv, { rev = !rev; res_uses = arrays res })

and node ~keep ~arrays (s : stm) : SS.t * node =
  let subs = ref [] in
  let fv =
    keep
      (fv_stm_with
         (fun body ->
           let fv, sum = summarize ~keep ~arrays body in
           (* free arrays of a loop or mapnest body are read by other
              iterations or threads *)
           let live =
             match s.exp with
             | ELoop _ | EMap _ -> arrays fv
             | _ -> SS.empty
           in
           subs := (live, sum) :: !subs;
           fv)
         s)
  in
  (fv, { stm = s; uses = arrays fv; subs = List.rev !subs })

(* Top-down: annotate the block [sum] summarizes, given the arrays used
   after it. *)
let rec assign ~used_after (sum : summary) : unit =
  ignore
    (List.fold_left
       (fun later n ->
         List.iter
           (fun (live, sub) -> assign ~used_after:(SS.union later live) sub)
           n.subs;
         n.stm.last_uses <- SS.elements (SS.diff n.uses later);
         SS.union later n.uses)
       (SS.union used_after sum.res_uses)
       sum.rev)

(* Annotate a whole program in place; returns the alias map used. *)
let annotate (p : prog) : Alias.t =
  let aliases = Alias.of_prog p in
  let types = Hashtbl.create 64 in
  List.iter (fun pe -> Hashtbl.replace types pe.pv pe.pt) p.params;
  record_types types p.body;
  let is_array v =
    match Hashtbl.find_opt types v with
    | Some t -> is_array_typ t
    | None -> false
  in
  (* A name that is no array and in no alias class closes to nothing. *)
  let keep = SS.filter (fun v -> is_array v || Alias.SM.mem v aliases) in
  (* One variable's alias class, restricted to arrays, computed once. *)
  let closed = Hashtbl.create 64 in
  let class_arrays v =
    match Hashtbl.find_opt closed v with
    | Some c -> c
    | None ->
        let c = SS.filter is_array (Alias.closure aliases v) in
        Hashtbl.add closed v c;
        c
  in
  let arrays vs =
    SS.fold (fun v acc -> SS.union (class_arrays v) acc) vs SS.empty
  in
  let _, sum = summarize ~keep ~arrays p.body in
  assign ~used_after:SS.empty sum;
  aliases
