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

   Every set is a bitset over the alias analysis's ids ({!Alias.id}),
   so a set operation is a few word operations and no name is compared.
   Two passes visit each statement once each, whatever the nesting
   depth.  The bottom-up pass takes each statement's free ids from its
   array-operand positions (atoms; the operands of views, updates,
   copies, concatenations and reductions; loop initializers and block
   results) and adds each nested block's summary with that block's
   nest, loop-variable and loop-parameter ids cleared.  A summary is
   its statements' and its result's free ids less every binder of the
   block: binder names are unique program-wide ({!Ir.Names}), so no
   name is used in a block before the block binds it.  Names in index
   polynomials and memory annotations are never arrays and are not
   read.  A statement's uses are the union of its free ids' classes,
   restricted to the arrays; a loop or mapnest body's live set is
   taken the same way before its loop parameters are cleared, so a
   parameter stays live throughout its body.  The top-down pass
   assigns [uses \ later], by name in [String.compare] order. *)

open Ir.Ast

(* A statement's alias-closed array uses and its nested blocks, each
   with the arrays live throughout it. *)
type node = { stm : stm; uses : Bitset.t; subs : (Bitset.t * summary) list }

(* A block: its statements, last first, and the arrays its result
   uses. *)
and summary = { rev : node list; res_uses : Bitset.t }

(* Runs and statement visits (one per statement in each pass), read
   and reset like {!Ir.Ast.fv_visits}. *)
let run_count = ref 0
let visit_count = ref 0
let runs () = !run_count
let visits () = !visit_count

let reset_counts () =
  run_count := 0;
  visit_count := 0

(* [add] applied to a statement's array operands. *)
let add_operands add (e : exp) =
  let add_atom = function Var v -> add v | _ -> () in
  match e with
  | EAtom a | EUn (_, a) | EReplicate (_, a) -> add_atom a
  | EBin (_, a, b) | ECmp (_, a, b) ->
      add_atom a;
      add_atom b
  | EIndex (v, _)
  | ESlice (v, _)
  | ETranspose (v, _)
  | EReshape (v, _)
  | EReverse (v, _)
  | ECopy v
  | EArgmin v ->
      add v
  | EConcat vs -> List.iter add vs
  | EUpdate { dst; src; _ } -> (
      add dst;
      match src with SrcArr v -> add v | SrcScalar a -> add_atom a)
  | EReduce { ne; arr; _ } ->
      add arr;
      add_atom ne
  | ELoop { params; _ } -> List.iter (fun (_, a) -> add_atom a) params
  | EIf { cond; _ } -> add_atom cond
  | EIdx _ | EIota _ | EScratch _ | EMap _ | EAlloc _ -> ()

(* Annotate a whole program in place; returns the alias classes used. *)
let annotate (p : prog) : Alias.t =
  incr run_count;
  let aliases = Alias.of_prog p in
  let n = Alias.size aliases in
  let remove set v =
    let i = Alias.id aliases v in
    if i >= 0 then Bitset.remove set i
  in
  (* [free] gains the name [v] and [uses] its class *)
  let use free uses v =
    let i = Alias.id aliases v in
    if i >= 0 then (
      Bitset.add free i;
      Alias.close_into aliases uses i)
  in
  (* [set] gains the classes of the ids in [ids] *)
  let close set ids = Bitset.iter (Alias.close_into aliases set) ids in
  let restrict set =
    Bitset.inter_into set (Alias.arrays aliases);
    set
  in
  let none = Bitset.create n in
  (* Bottom-up: a block's summary and its free ids. *)
  let rec summarize (b : block) : Bitset.t * summary =
    let free = Bitset.create n in
    let rev = List.fold_left (fun rev s -> node free s :: rev) [] b.stms in
    let res_uses = Bitset.create n in
    List.iter (function Var v -> use free res_uses v | _ -> ()) b.res;
    List.iter (fun s -> List.iter (fun pe -> remove free pe.pv) s.pat) b.stms;
    (free, { rev; res_uses = restrict res_uses })
  (* A statement's node; its free ids are added to [outer]. *)
  and node outer (s : stm) : node =
    incr visit_count;
    let uses = Bitset.create n in
    add_operands (use outer uses) s.exp;
    (* a nested block, its [bound] ids cleared; the free arrays of a
       loop or mapnest body are read by other iterations or threads *)
    let sub ~live bound body =
      let fb, sum = summarize body in
      let live =
        if live then (
          let l = Bitset.create n in
          close l fb;
          restrict l)
        else none
      in
      List.iter (remove fb) bound;
      Bitset.union_into outer fb;
      close uses fb;
      (live, sum)
    in
    let subs =
      match s.exp with
      | EMap { nest; body } -> [ sub ~live:true (List.map fst nest) body ]
      | ELoop { params; var; body; _ } ->
          let bound = var :: List.map (fun (pe, _) -> pe.pv) params in
          [ sub ~live:true bound body ]
      | EIf { tb; fb; _ } ->
          let t = sub ~live:false [] tb in
          [ t; sub ~live:false [] fb ]
      | _ -> []
    in
    { stm = s; uses = restrict uses; subs }
  in
  (* Top-down: annotate the block [sum] summarizes; [later] holds the
     arrays used after it and is updated in place. *)
  let rec assign later (sum : summary) =
    Bitset.union_into later sum.res_uses;
    List.iter
      (fun nd ->
        incr visit_count;
        List.iter
          (fun (live, sub) -> assign (Bitset.union later live) sub)
          nd.subs;
        let last = ref [] in
        Bitset.iter_diff
          (fun i -> last := Alias.name aliases i :: !last)
          nd.uses later;
        nd.stm.last_uses <- List.sort String.compare !last;
        Bitset.union_into later nd.uses)
      sum.rev
  in
  let _, sum = summarize p.body in
  assign (Bitset.create n) sum;
  aliases
