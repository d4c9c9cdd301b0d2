(* Alias analysis: which array variables may share memory.

   Two flavours are needed by the paper's passes:

   - *value aliasing* (used by last-use, footnote 18): slicing,
     transposition, reshaping, reversing and variable copies alias their
     operand; [EUpdate] results alias the consumed destination (same
     memory); [EIf]/[ELoop] results alias whatever the branches/body
     return.  Fresh-array constructors (map, copy, iota, scratch,
     replicate, concat) alias nothing.

   The analysis gives every variable an alias class (a set of
   variables holding it).  Binding [v] to targets [ts] joins [v] with
   the current classes of [ts] and makes the join the class of every
   member; a member's older class is dropped, so the relation is not
   closed transitively (alias.mli gives an example).  Classes are
   global across nested blocks, which is conservative and sound.

   One walk numbers every array binder (the program's parameters, the
   pattern elements and the loop parameters) and every name an alias
   can target, records which ids are bound as arrays, and lists the
   bindings that alias in the order the analysis adds them: a
   statement's nested blocks first (a loop's parameters after its
   body), then its pattern.  The bindings are then replayed over
   bitsets of the final width.  A class is one bitset shared by all of
   its members; the same set by name is built on first request. *)

open Ir.Ast
module SS = Ir.Ast.SS

type cls = { bits : Bitset.t; mutable by_name : SS.t option }

(* A numbered name: its id, and whether it is bound as an array (the
   last binder walked decides, as in a type table). *)
type entry = { id : int; mutable array : bool }

type t = {
  ids : (string, entry) Hashtbl.t;
  names : string array;
  arrays : Bitset.t;
  classes : cls option array; (* by id; [None]: the id alone *)
}

let size t = Array.length t.names
let id t v = match Hashtbl.find_opt t.ids v with Some e -> e.id | None -> -1
let name t i = t.names.(i)
let arrays t = t.arrays

let close_into t acc i =
  match t.classes.(i) with
  | Some c -> Bitset.union_into acc c.bits
  | None -> Bitset.add acc i

let closure t v =
  let i = id t v in
  match if i < 0 then None else t.classes.(i) with
  | None -> SS.singleton v
  | Some { by_name = Some s; _ } -> s
  | Some c ->
      let s = ref SS.empty in
      Bitset.iter (fun j -> s := SS.add t.names.(j) !s) c.bits;
      c.by_name <- Some !s;
      !s

(* Variables the results of [e] alias (one list per result). *)
let result_aliases (e : exp) : string list list option =
  let vars atoms = List.filter_map atom_var atoms in
  match e with
  | EAtom (Var v) -> Some [ [ v ] ]
  | ESlice (v, _) | ETranspose (v, _) | EReshape (v, _) | EReverse (v, _) ->
      Some [ [ v ] ]
  | EUpdate { dst; _ } -> Some [ [ dst ] ]
  | EIf { tb; fb; _ } ->
      Some (List.map2 (fun a b -> vars [ a; b ]) tb.res fb.res)
  | ELoop { params; body; _ } ->
      (* The loop result aliases the initial value and whatever the body
         returns (conservatively). *)
      Some (List.map2 (fun (_, init) r -> vars [ init; r ]) params body.res)
  | _ -> None

(* The numbering walk's state: the names so far, and the aliasing
   bindings, last first. *)
type walk = {
  tbl : (string, entry) Hashtbl.t;
  mutable rev_names : string list;
  mutable bindings : (int * int list) list;
}

let intern w v =
  match Hashtbl.find_opt w.tbl v with
  | Some e -> e
  | None ->
      let e = { id = Hashtbl.length w.tbl; array = false } in
      Hashtbl.add w.tbl v e;
      w.rev_names <- v :: w.rev_names;
      e

let bind w v typ =
  if is_array_typ typ then (intern w v).array <- true
  else
    match Hashtbl.find_opt w.tbl v with
    | Some e -> e.array <- false
    | None -> ()

let alias w v targets =
  w.bindings <-
    ((intern w v).id, List.map (fun t -> (intern w t).id) targets)
    :: w.bindings

let rec walk_block w (b : block) = List.iter (walk_stm w) b.stms

and walk_stm w (s : stm) =
  List.iter (fun pe -> bind w pe.pv pe.pt) s.pat;
  (match s.exp with
  | EMap { nest; body } ->
      List.iter (fun (v, _) -> bind w v i64) nest;
      walk_block w body
  | ELoop { params; body; var; _ } ->
      (* loop params alias their inits and the body results *)
      bind w var i64;
      List.iter (fun (pe, _) -> bind w pe.pv pe.pt) params;
      walk_block w body;
      List.iter
        (fun ((pe, init), r) ->
          if is_array_typ pe.pt then
            alias w pe.pv (List.filter_map atom_var [ init; r ]))
        (List.combine params body.res)
  | EIf { tb; fb; _ } ->
      walk_block w tb;
      walk_block w fb
  | _ -> ());
  match result_aliases s.exp with
  | Some sets when List.length sets = List.length s.pat ->
      List.iter2
        (fun pe tgts ->
          if is_array_typ pe.pt && tgts <> [] then alias w pe.pv tgts)
        s.pat sets
  | _ -> ()

(* Binding [v] to [targets]: one class of [v] and the targets' classes,
   the class of every member. *)
let add_alias n classes (v, targets) =
  let bits = Bitset.create n in
  Bitset.add bits v;
  List.iter
    (fun t ->
      match classes.(t) with
      | Some c -> Bitset.union_into bits c.bits
      | None -> Bitset.add bits t)
    targets;
  let c = Some { bits; by_name = None } in
  Bitset.iter (fun m -> classes.(m) <- c) bits

(* Alias classes for a whole program. *)
let of_prog (p : prog) : t =
  let w = { tbl = Hashtbl.create 64; rev_names = []; bindings = [] } in
  List.iter (fun pe -> bind w pe.pv pe.pt) p.params;
  walk_block w p.body;
  let names = Array.of_list (List.rev w.rev_names) in
  let n = Array.length names in
  let arrays = Bitset.create n in
  Hashtbl.iter (fun _ e -> if e.array then Bitset.add arrays e.id) w.tbl;
  let classes = Array.make n None in
  List.iter (add_alias n classes) (List.rev w.bindings);
  { ids = w.tbl; names; arrays; classes }
