(* Array short-circuiting (section V).

   At a circuit point - [let y[W] = b] with [b] lastly used, a
   [let x = concat a b] of lastly-used operands, or the implicit write
   of a mapnest body result - the pass tries to construct the candidate
   array directly in the destination's memory block with the rebased
   index function, so the copy at the circuit point becomes a no-op
   (the memory-aware executor skips copies whose source and destination
   locations coincide).

   The analysis is bottom-up (section V-A/V-B).  Walking from the
   circuit point towards the candidate's fresh-array creation it
   maintains:

   - the *chain*: every variable in an alias relation with the
     candidate, each assigned its rebased index function (views are
     transformed forward from the candidate's; update destinations
     share the result's);
   - [U_xss]: the union (of LMADs) of all uses of the destination's
     memory encountered so far, i.e. the uses that will execute *after*
     the current program point;
   - [W_bs]: the writes performed through the rebased chain.

   Every chain write is checked disjoint from the current [U_xss] with
   the sufficient LMAD non-overlap test (section V-C).  Uses inside
   loops and mapnests are aggregated by promoting the iteration
   variable to an LMAD dimension (section II-B); where the paper checks
   the refined per-iteration conditions (U_xss^{>i} vs W_bs^i, Fig. 7b)
   we check the whole-loop unions, which is sound and strictly more
   conservative, plus the in-iteration ordering check - this suffices
   for all benchmarks in the paper's evaluation, including NW's Fig. 9
   obligation.

   Success only mutates memory annotations ([pmem]); the program text
   is unchanged, preserving the add-on property of section III-C. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module Refset = Lmads.Refset
module SS = Ir.Ast.SS

type stats = {
  mutable candidates : int; (* circuit points examined *)
  mutable succeeded : int; (* candidates fully rebased *)
  mutable overlap_checks : int; (* LMAD non-overlap queries *)
  mutable rebased_vars : int; (* variables whose ixfn changed *)
}

let fresh_stats () =
  { candidates = 0; succeeded = 0; overlap_checks = 0; rebased_vars = 0 }

let pp_stats ppf (s : stats) =
  Report.section ~title:"short-circuiting" ppf
    [
      ("circuit points examined", string_of_int s.candidates);
      ("candidates rebased", string_of_int s.succeeded);
      ("non-overlap queries", string_of_int s.overlap_checks);
      ("variables rebased", string_of_int s.rebased_vars);
    ]

(* Per-run configuration, threaded through the pass (no mutable
   globals: ablation/lint runs must not leak state across tests):
   - [verbose]: trace circuit attempts and failure reasons to stderr;
   - [enable_refinement]: the per-iteration / per-thread conditions of
     section V-B (Fig. 7b and the mapnest rule).  Off = whole-loop
     unions only.
   - [split_depth]: recursion budget of the dimension-splitting
     heuristic in the non-overlap test (Fig. 8).  0 = the plain
     Hoeflinger test without splitting, which cannot prove Fig. 9. *)
type options = {
  verbose : bool;
  enable_refinement : bool;
  split_depth : int;
}

let default_options = { verbose = false; enable_refinement = true; split_depth = 3 }

let trace opts fmt =
  if opts.verbose then Fmt.epr (fmt ^^ "@.") else Fmt.kstr (fun _ -> ()) fmt

type st = {
  opts : options;
  mems : (string, mem_info) Hashtbl.t; (* current annotations *)
  types : (string, typ) Hashtbl.t;
  scalars : P.t P.SM.t; (* scalar defs for translation *)
  aliases : Alias.t;
  stats : stats;
  failed : (string * string, int) Hashtbl.t;
      (* (candidate, destination block) attempts that failed, stamped
         with the rebase count at failure: re-attempted only after
         other circuits have made progress (transitive chaining) *)
  cert : Certify.recorder option;
  mutable claims : (Refset.t * Refset.t * Pr.t) list;
      (* successful non-overlap checks of the attempt in flight, newest
         first; drained into the recorder when a circuit commits,
         restored to the entry mark when its walk rolls back *)
}

(* ---------------------------------------------------------------- *)
(* Global tables                                                     *)
(* ---------------------------------------------------------------- *)

(* [aliases]: the classes the last-use analysis of [p] returned. *)
let build_tables opts cert aliases (p : prog) : st =
  let stms = all_stms_block p.body in
  let st =
    {
      opts;
      mems = Hashtbl.create 256;
      types = Hashtbl.create 256;
      scalars = Facts.add_scalars P.SM.empty stms;
      aliases;
      stats = fresh_stats ();
      failed = Hashtbl.create 32;
      cert;
      claims = [];
    }
  in
  let record_pe pe =
    Hashtbl.replace st.types pe.pv pe.pt;
    match pe.pmem with
    | Some m -> Hashtbl.replace st.mems pe.pv m
    | None -> ()
  in
  List.iter record_pe p.params;
  List.iter
    (fun s ->
      List.iter record_pe s.pat;
      match s.exp with
      | EMap { nest; _ } ->
          List.iter
            (fun (v, _) -> Hashtbl.replace st.types v (TScalar I64))
            nest
      | ELoop { params; var; _ } ->
          Hashtbl.replace st.types var (TScalar I64);
          List.iter (fun (pe, _) -> record_pe pe) params
      | _ -> ())
    stms;
  st

let already_failed st candidate ymem =
  match Hashtbl.find_opt st.failed (candidate, ymem) with
  | Some stamp -> stamp = st.stats.rebased_vars
  | None -> false

let record_failure st candidate ymem =
  Hashtbl.replace st.failed (candidate, ymem) st.stats.rebased_vars

let mem_of st v = Hashtbl.find_opt st.mems v
let typ_of st v = Hashtbl.find_opt st.types v

let is_array st v =
  match typ_of st v with Some (TArr _) -> true | _ -> false

(* ---------------------------------------------------------------- *)
(* Reference-set collection                                          *)
(* ---------------------------------------------------------------- *)

let sliced_set ctx (slc : slice) (ixfn : Ixfn.t) : Refset.t =
  match Facts.sliced_ixfn ctx slc ixfn with
  | Some ix -> Facts.refset_of_ixfn ix
  | None -> Refset.top

(* Accesses of memory block [ymem] performed by [s], excluding accesses
   through variables in [exclude] (the candidate's chain/alias class).
   Iteration variables of nested loops/mapnests are promoted to LMAD
   dimensions; any leftover body-local variable in the result makes it
   Top (data-dependent indexing, cf. Fig. 1 right). *)
let rec uses_in_stm st ctx ~ymem ~exclude (s : stm) : Refset.t =
  let in_ymem v =
    (not (SS.mem v exclude))
    && (match mem_of st v with Some m -> m.block = ymem | None -> false)
  in
  let full v =
    match mem_of st v with
    | Some m -> Facts.refset_of_ixfn m.ixfn
    | None -> Refset.top
  in
  match s.exp with
  | EIndex (v, idxs) when in_ymem v -> (
      let m = Option.get (mem_of st v) in
      match Ixfn.apply_sym m.ixfn idxs with
      | Some off -> Refset.of_lmad (Lmad.point off)
      | None -> Refset.top)
  | ESlice (v, slc) when in_ymem v ->
      sliced_set ctx slc (Option.get (mem_of st v)).ixfn
  | EUpdate { dst; slc; src } ->
      let w =
        if in_ymem dst then sliced_set ctx slc (Option.get (mem_of st dst)).ixfn
        else Refset.empty
      in
      let r =
        match src with
        | SrcArr v when in_ymem v -> full v
        | _ -> Refset.empty
      in
      Refset.union w r
  | EMap { nest; body } ->
      let inner =
        uses_in_block st (Facts.with_nest ctx nest) ~ymem ~exclude body
      in
      guard_locals
        (Facts.expand ctx (List.rev nest) inner)
        body (List.map fst nest)
  | ELoop { params; var; bound; body } ->
      let inner =
        uses_in_block st (Facts.with_range ctx var bound) ~ymem ~exclude body
      in
      let expanded = Refset.expand_loop ctx var ~count:bound inner in
      let from_inits =
        List.fold_left
          (fun acc (_, init) ->
            match init with
            | Var v when in_ymem v -> Refset.union acc (full v)
            | _ -> acc)
          Refset.empty params
      in
      Refset.union
        (guard_locals expanded body
           (var :: List.map (fun (pe, _) -> pe.pv) params))
        from_inits
  | EIf { tb; fb; _ } ->
      Refset.union
        (uses_in_block st ctx ~ymem ~exclude tb)
        (uses_in_block st ctx ~ymem ~exclude fb)
  | _ ->
      (* any other appearance of a ymem array is a full use *)
      SS.fold
        (fun v acc -> if in_ymem v then Refset.union acc (full v) else acc)
        (fv_exp s.exp) Refset.empty

and uses_in_block st ctx ~ymem ~exclude (b : block) : Refset.t =
  let from_stms =
    List.fold_left
      (fun acc s -> Refset.union acc (uses_in_stm st ctx ~ymem ~exclude s))
      Refset.empty b.stms
  in
  let in_ymem v =
    (not (SS.mem v exclude))
    && (match mem_of st v with Some m -> m.block = ymem | None -> false)
  in
  List.fold_left
    (fun acc a ->
      match a with
      | Var v when in_ymem v ->
          Refset.union acc
            (Facts.refset_of_ixfn (Option.get (mem_of st v)).ixfn)
      | _ -> acc)
    from_stms b.res

(* If a reference set still mentions variables bound inside [body]
   (other than those already promoted), the indexing is data-dependent:
   overestimate to Top. *)
and guard_locals (rs : Refset.t) (body : block) (promoted : string list) :
    Refset.t =
  let locals = bound_inside body in
  let locals =
    List.fold_left (fun acc v -> SS.remove v acc) locals promoted
  in
  if List.exists (fun v -> SS.mem v locals) (Refset.vars rs) then Refset.top
  else rs

(* Every name bound anywhere inside a block: statement binders, loop
   parameters, loop and mapnest iteration variables. *)
and bound_inside (b : block) : SS.t =
  List.fold_left
    (fun acc s ->
      let acc =
        List.fold_left (fun acc pe -> SS.add pe.pv acc) acc s.pat
      in
      match s.exp with
      | EMap { nest; body } ->
          SS.union
            (List.fold_left (fun acc (v, _) -> SS.add v acc) acc nest)
            (bound_inside body)
      | ELoop { params; var; body; _ } ->
          let acc = SS.add var acc in
          let acc =
            List.fold_left (fun acc (pe, _) -> SS.add pe.pv acc) acc params
          in
          SS.union acc (bound_inside body)
      | EIf { tb; fb; _ } ->
          SS.union acc (SS.union (bound_inside tb) (bound_inside fb))
      | _ -> acc)
    SS.empty b.stms

(* ---------------------------------------------------------------- *)
(* Index-function translation (section V-A(b))                        *)
(* ---------------------------------------------------------------- *)

(* Rewrite [ixfn] so that it only mentions variables in [scope],
   substituting recorded scalar definitions to a fixpoint. *)
let translate st ~scope (ixfn : Ixfn.t) : Ixfn.t option =
  let in_scope ix = List.for_all (fun v -> SS.mem v scope) (Ixfn.vars ix) in
  if in_scope ixfn then Some ixfn
  else
    let ix = Facts.resolve_ixfn st.scalars ixfn in
    if in_scope ix then Some ix else None

(* ---------------------------------------------------------------- *)
(* The bottom-up walk                                                 *)
(* ---------------------------------------------------------------- *)

type pending = { pe : pat_elem; mem : mem_info }

(* The claims pushed since [mark] (the buffer value at attempt entry),
   oldest first.  Rollbacks restore the buffer to saved values, so
   physical equality identifies the mark reliably. *)
let claims_since st mark =
  let rec go acc l =
    if l == mark then acc
    else match l with [] -> acc | c :: rest -> go (c :: acc) rest
  in
  go [] st.claims

(* Emit the certificate of one committed circuit: the last-use
   requirement (where the circuit point demanded it), every incremental
   non-overlap fact accumulated since [mark] (each under the prover
   context it was discharged with), and the final annotation of every
   rebased variable. *)
let emit_circuit st ~ctx ~candidate ~ymem ~at_binding ~last_use ~mark
    ~pendings =
  match st.cert with
  | None -> ()
  | Some r ->
      let rw = Certify.Copy_elide { candidate; dst_block = ymem; at_binding } in
      if last_use then
        Certify.emit r rw ~ctx
          (Certify.Last_use { var = candidate; at_binding });
      List.iter
        (fun (w, u, cctx) ->
          Certify.emit r rw ~ctx:cctx (Certify.Nonoverlap { w; u }))
        (claims_since st mark);
      st.claims <- mark;
      List.iter
        (fun { pe; mem } ->
          Certify.emit r rw ~ctx (Certify.Rebased { var = pe.pv; mem }))
        pendings

type walk_result =
  | Fail
  | Ok of {
      pendings : pending list;
      u_final : Refset.t; (* uses of ymem over the walked region *)
      w_total : Refset.t; (* writes through the chain *)
    }

type binfo = {
  arr : stm array;
  defined : SS.t array; (* vars in scope before stm i (incl. outer) *)
  allocd : SS.t array; (* memory blocks in scope before stm i *)
}

let block_info ~outer_defined ~outer_allocd (b : block) : binfo =
  let n = List.length b.stms in
  let arr = Array.of_list b.stms in
  let defined = Array.make (n + 1) outer_defined in
  let allocd = Array.make (n + 1) outer_allocd in
  for i = 0 to n - 1 do
    let s = arr.(i) in
    defined.(i + 1) <-
      List.fold_left (fun acc pe -> SS.add pe.pv acc) defined.(i) s.pat;
    allocd.(i + 1) <-
      List.fold_left
        (fun acc pe -> if pe.pt = TMem then SS.add pe.pv acc else acc)
        allocd.(i) s.pat
  done;
  { arr; defined; allocd }

let check_disjoint st ctx (w : Refset.t) (u : Refset.t) : bool =
  st.stats.overlap_checks <- st.stats.overlap_checks + 1;
  let r = Refset.disjoint ~depth:st.opts.split_depth ctx w u in
  (* record the exact fact (and context) the rewrite is about to rely
     on; it becomes an obligation only if the attempt commits *)
  if r && st.cert <> None then st.claims <- (w, u, ctx) :: st.claims;
  r

(* The alias class of the candidate: every variable whose accesses are
   chain accesses rather than destination uses. *)
let chain_class st v = Alias.closure st.aliases v

(* Walk the statements of [info] from index [start_j - 1] down to 0,
   rebasing [active] (with index function [ixfn]) into block [ymem].
   [stops] maps variable names (loop parameters) at which the chain
   terminates successfully.  Returns the accumulated pendings, uses and
   chain writes. *)
let rec walk st ctx info ~ymem ~start_j ~active ~ixfn ~u0 ~stops : walk_result
    =
  let exclude = chain_class st active in
  let u_xss = ref u0 in
  let w_total = ref Refset.empty in
  let pendings = ref [] in
  let add_pending pe mem =
    pendings := { pe; mem } :: !pendings;
    (* visible immediately so later (upward) collection treats it right *)
    Hashtbl.replace st.mems pe.pv mem
  in
  let saved_mems = Hashtbl.copy st.mems in
  let saved_claims = st.claims in
  let rollback () =
    Hashtbl.reset st.mems;
    Hashtbl.iter (Hashtbl.replace st.mems) saved_mems;
    st.claims <- saved_claims
  in
  let active = ref active in
  let ixfn = ref ixfn in
  let result = ref None in
  let j = ref (start_j - 1) in
  (try
     while !result = None do
       if !j < 0 then (
         (* reached the block top without finding the creation; only a
            designated stop variable (loop parameter) terminates the
            chain successfully here *)
         if List.mem !active stops then
           result :=
             Some
               (Ok
                  { pendings = !pendings; u_final = !u_xss; w_total = !w_total })
         else result := Some Fail)
       else begin
         let s = info.arr.(!j) in
         let defines v = List.exists (fun pe -> pe.pv = v) s.pat in
         (* a write through a non-chain alias of the candidate would
            need its own rebased index function (property 3): only the
            active chain supports that *)
         let alias_write =
           match s.exp with
           | EUpdate { dst; _ } ->
               SS.mem dst exclude
               && not (defines !active)
               && dst <> !active
           | _ -> false
         in
         if alias_write then result := Some Fail
         else if List.exists (fun pe -> pe.pv = ymem) s.pat then
           (* the destination memory is not in scope above this point *)
           result := Some Fail
         else if defines !active then begin
           match
             chain_step st ctx info ~ymem ~j:!j ~active:!active ~ixfn:!ixfn
               ~u_xss ~w_total ~add_pending ~stops
           with
           | `Continue (v, ix) ->
               active := v;
               ixfn := ix
           | `Done ->
               result :=
                 Some
                   (Ok
                      {
                        pendings = !pendings;
                        u_final = !u_xss;
                        w_total = !w_total;
                      })
           | `Fail -> result := Some Fail
         end
         else begin
           (* uses of ymem by this statement execute after everything
              above it (chain statements account for their own uses in
              [chain_step]) *)
           let u = uses_in_stm st ctx ~ymem ~exclude s in
           u_xss := Refset.union !u_xss u
         end;
         decr j
       end
     done
   with e ->
     rollback ();
     raise e);
  match !result with
  | Some (Ok _ as ok) -> ok
  | Some Fail | None ->
      rollback ();
      Fail

(* Handle the statement defining the active chain variable. *)
and chain_step st ctx info ~ymem ~j ~active ~ixfn ~u_xss ~w_total
    ~add_pending ~stops :
    [ `Continue of string * Ixfn.t | `Done | `Fail ] =
  let s = info.arr.(j) in
  let scope = info.defined.(j) in
  let pe_of v = List.find (fun pe -> pe.pv = v) s.pat in
  let commit_ixfn v ix =
    match translate st ~scope ix with
    | Some ix' ->
        add_pending (pe_of v) { block = ymem; ixfn = ix' };
        Some ix'
    | None -> None
  in
  let dest_allocated () = SS.mem ymem info.allocd.(j) in
  let full_set = Facts.refset_of_ixfn in
  match s.exp with
  (* --- views: transform forward is impossible (we know the result's
     rebased ixfn, need the operand's), so apply the inverse --- *)
  | EAtom (Var u) -> (
      match commit_ixfn active ixfn with
      | Some ix -> `Continue (u, ix)
      | None -> `Fail)
  | ETranspose (u, perm) -> (
      let inv = Array.make (List.length perm) 0 in
      List.iteri (fun i p -> inv.(p) <- i) perm;
      match commit_ixfn active ixfn with
      | Some ix -> `Continue (u, Ixfn.permute (Array.to_list inv) ix)
      | None -> `Fail)
  | EReverse (u, d) -> (
      match commit_ixfn active ixfn with
      | Some ix -> `Continue (u, Ixfn.reverse d ix)
      | None -> `Fail)
  | EReshape (u, _) -> (
      match typ_of st u with
      | Some (TArr (_, u_shape)) -> (
          match commit_ixfn active ixfn with
          | Some ix ->
              let ix' = Ixfn.reshape ctx u_shape ix in
              if Ixfn.is_single ix' then `Continue (u, ix')
              else `Fail (* multi-LMAD rebase not supported *)
          | None -> `Fail)
      | _ -> `Fail)
  | ESlice _ ->
      trace st.opts "  chain %s: slice is not invertible" active;
      `Fail (* not invertible (section V-A(a)) *)
  (* --- in-place update: the result shares the destination's memory;
     the write set through the rebased ixfn must avoid U_xss --- *)
  | EUpdate { dst; slc; src = _ } ->
      (* the source may read ymem; those reads are simultaneous with the
         (rebased) write, so they count as uses first *)
      u_xss :=
        Refset.union !u_xss
          (uses_in_stm st ctx ~ymem ~exclude:(chain_class st active) s);
      let wset = sliced_set ctx slc ixfn in
      if not (check_disjoint st ctx wset !u_xss) then (
        trace st.opts "  chain %s: update write overlaps U_xss" active;
        `Fail)
      else begin
        w_total := Refset.union !w_total wset;
        match commit_ixfn active ixfn with
        | Some ix -> `Continue (dst, ix)
        | None -> `Fail
      end
  (* --- creations --- *)
  | EScratch _ ->
      if not (dest_allocated ()) then `Fail
      else (
        match commit_ixfn active ixfn with
        | Some _ -> `Done
        | None -> `Fail)
  | EIota _ | EReplicate _ ->
      if not (dest_allocated ()) then `Fail
      else if not (check_disjoint st ctx (full_set ixfn) !u_xss) then `Fail
      else (
        w_total := Refset.union !w_total (full_set ixfn);
        match commit_ixfn active ixfn with
        | Some _ -> `Done
        | None -> `Fail)
  | ECopy src ->
      let src_reads =
        match mem_of st src with
        | Some m when m.block = ymem -> Facts.refset_of_ixfn m.ixfn
        | _ -> Refset.empty
      in
      if not (dest_allocated ()) then `Fail
      else if
        not
          (check_disjoint st ctx (full_set ixfn)
             (Refset.union !u_xss src_reads))
      then `Fail
      else (
        w_total := Refset.union !w_total (full_set ixfn);
        match commit_ixfn active ixfn with
        | Some _ -> `Done
        | None -> `Fail)
  | EConcat ops ->
      u_xss :=
        Refset.union !u_xss
          (uses_in_stm st ctx ~ymem ~exclude:(chain_class st active) s);
      if not (dest_allocated ()) then `Fail
      else if not (check_disjoint st ctx (full_set ixfn) !u_xss) then `Fail
      else begin
        w_total := Refset.union !w_total (full_set ixfn);
        match commit_ixfn active ixfn with
        | None -> `Fail
        | Some committed ->
            (* transitively try each lastly-used operand at its row
               offset inside the rebased result (Fig. 4a / Fig. 6a) *)
            circuit_concat_operands st ctx info ~ymem ~j ~ops
              ~res_ixfn:committed ~last_uses:s.last_uses ~u0:!u_xss
              ~at_binding:
                (match s.pat with pe :: _ -> pe.pv | [] -> active);
            `Done
      end
  | EMap { nest; body } -> (
      if not (dest_allocated ()) then `Fail
      else
        let exclude = chain_class st active in
        let own_reads = uses_in_stm st ctx ~ymem ~exclude s in
        (* First the conservative check: the whole (rebased) write set
           against everything after plus all reads of the map itself.
           When that fails because each thread reads locations it also
           writes (Fig. 1 left: the diagonal), fall back to the
           per-iteration condition of section V-B: thread i's writes
           must avoid the uses of every *other* thread j (reads before
           writes within one thread are fine). *)
        let safe =
          check_disjoint st ctx (full_set ixfn)
            (Refset.union !u_xss own_reads)
          || (st.opts.enable_refinement
             && check_disjoint st ctx (full_set ixfn) !u_xss
             && cross_thread_ok st ctx ~ymem ~exclude ~nest ~body
                  ~w_thread:
                    (Facts.refset_of_ixfn (Facts.thread_slice nest ixfn)))
        in
        if not safe then (
          trace st.opts "  chain %s: mapnest creation unsafe (reads overlap)" active;
          `Fail)
        else begin
          w_total := Refset.union !w_total (full_set ixfn);
          match commit_ixfn active ixfn with
          | None -> `Fail
          | Some committed ->
              (* opportunistically rebase the per-thread result into its
                 slot of the rebased result (Fig. 6b) *)
              rebase_mapnest_body st ctx info ~ymem ~j ~nest ~body
                ~res_ixfn:committed;
              `Done
        end)
  | ELoop { params; var; bound; body } ->
      circuit_loop st ctx info ~ymem ~j ~active ~ixfn ~u_xss ~w_total
        ~add_pending ~params ~var ~bound ~body ~stops
  | EIf { tb; fb; _ } ->
      circuit_if st ctx info ~ymem ~j ~active ~ixfn ~u_xss ~add_pending ~s
        ~tb ~fb
  | EIndex _ | EBin _ | ECmp _ | EUn _ | EIdx _ | EAtom _ | EReduce _
  | EArgmin _ | EAlloc _ ->
      `Fail

(* Section V-B, mapnest rule: writes of one thread must avoid the uses
   of every *other* thread (iterations execute out of order), while
   same-thread read-before-write is permitted. *)
and other_threads_ok st ctx nest ~w ~u =
  Facts.other_threads ~where:"shortcircuit" ~tag:"othr"
    ~disjoint:(check_disjoint st) ctx nest ~w ~u

and cross_thread_ok st ctx ~ymem ~exclude ~nest ~body ~w_thread : bool =
  match nest with
  | [] -> true
  | _ ->
      let u_thread =
        guard_locals
          (uses_in_block st (Facts.with_nest ctx nest) ~ymem ~exclude body)
          body (List.map fst nest)
      in
      other_threads_ok st ctx nest ~w:w_thread ~u:u_thread

(* Fig. 5b: the candidate is produced by a loop.  The loop parameter,
   the initializer, and the body result are all rebased; body-internal
   safety is the per-iteration walk plus the whole-loop union check. *)
and circuit_loop st ctx info ~ymem ~j ~active ~ixfn ~u_xss ~w_total
    ~add_pending ~params ~var ~bound ~body ~stops =
  let s = info.arr.(j) in
  (* locate the group position of [active] in the pattern *)
  let pos = ref (-1) in
  List.iteri (fun i pe -> if pe.pv = active then pos := i) s.pat;
  if !pos < 0 || List.length params <> List.length s.pat then `Fail
  else
    let param_pe, _init = List.nth params !pos in
    let res_atom = List.nth body.res !pos in
    match (res_atom, List.nth params !pos) with
    | Var res_v, (_, Var init_v) -> (
        let scope = info.defined.(j) in
        match translate st ~scope ixfn with
        | None -> `Fail
        | Some loop_inv_ixfn -> (
            let ctx' = Facts.with_range ctx var bound in
            let binfo_body =
              block_info
                ~outer_defined:
                  (List.fold_left
                     (fun acc (pe, _) -> SS.add pe.pv acc)
                     (SS.add var info.defined.(j))
                     params)
                ~outer_allocd:info.allocd.(j) body
            in
            match
              walk st ctx' binfo_body ~ymem
                ~start_j:(Array.length binfo_body.arr)
                ~active:res_v ~ixfn:loop_inv_ixfn ~u0:Refset.empty
                ~stops:(param_pe.pv :: stops)
            with
            | Fail -> `Fail
            | Ok { pendings = body_pendings; u_final = u_body; w_total = w_body }
              ->
                (* cross-iteration check: first the conservative whole-
                   loop unions, then the refined U^{>i} vs W^i condition
                   of Fig. 7b - the writes of iteration i must not touch
                   locations used by any *later* iteration j > i (uses
                   of earlier iterations happened before the write). *)
                let u_loop = Refset.expand_loop ctx var ~count:bound u_body in
                let w_loop = Refset.expand_loop ctx var ~count:bound w_body in
                let refined () =
                  st.opts.enable_refinement
                  &&
                  let jv =
                    Binder.name ~where:"shortcircuit" "iter" var ctx'
                      [ w_body; u_body ]
                  in
                  let u_j = Refset.subst var (P.var jv) u_body in
                  let ctx_gt =
                    Pr.add_range ctx' jv
                      ~lo:(P.add (P.var var) P.one)
                      ~hi:(P.sub bound P.one) ()
                  in
                  check_disjoint st ctx_gt w_body u_j
                in
                if
                  not (check_disjoint st ctx w_loop u_loop || refined ())
                then (
                  trace st.opts "  chain %s: loop writes overlap loop uses" active;
                  `Fail)
                else if not (check_disjoint st ctx w_loop !u_xss) then (
                  trace st.opts "  chain %s: loop writes overlap U_xss" active;
                  `Fail)
                else begin
                  (* adopt the body rebase, the loop param, and the
                     binding; all become definitive only when the whole
                     outer walk succeeds *)
                  List.iter (fun pnd -> add_pending pnd.pe pnd.mem)
                    body_pendings;
                  add_pending param_pe { block = ymem; ixfn = loop_inv_ixfn };
                  add_pending
                    (List.nth s.pat !pos)
                    { block = ymem; ixfn = loop_inv_ixfn };
                  u_xss := Refset.union !u_xss u_loop;
                  w_total := Refset.union !w_total w_loop;
                  (* continue the chain above the loop at the initializer *)
                  `Continue (init_v, loop_inv_ixfn)
                end))
    | _ -> `Fail

(* Fig. 5a: the candidate is produced by an if; each branch result is
   short-circuited within its branch. *)
and circuit_if st ctx info ~ymem ~j ~active ~ixfn ~u_xss ~add_pending ~s ~tb
    ~fb =
  let pos = ref (-1) in
  List.iteri (fun i pe -> if pe.pv = active then pos := i) s.pat;
  if !pos < 0 then `Fail
  else
    let scope = info.defined.(j) in
    match translate st ~scope ixfn with
    | None -> `Fail
    | Some ix -> (
        let branch (blk : block) =
          if List.length blk.res <> List.length s.pat then `Bfail
          else
            match List.nth blk.res !pos with
            | Var rv ->
                let bi =
                  block_info ~outer_defined:info.defined.(j)
                    ~outer_allocd:info.allocd.(j) blk
                in
                (* the branch result may be defined inside the branch or
                   be a variable from the enclosing scope *)
                if Array.exists (fun st' -> List.exists (fun pe -> pe.pv = rv) st'.pat) bi.arr
                then
                  match
                    walk st ctx bi ~ymem ~start_j:(Array.length bi.arr)
                      ~active:rv ~ixfn:ix ~u0:!u_xss ~stops:[]
                  with
                  | Fail -> `Bfail
                  | Ok { u_final; w_total = w; pendings } ->
                      `Bok (u_final, w, pendings)
                else `Bfail
            | _ -> `Bfail
        in
        match (branch tb, branch fb) with
        | `Bok (u1, _, p1), `Bok (u2, _, p2) ->
            List.iter (fun pnd -> add_pending pnd.pe pnd.mem) (p1 @ p2);
            add_pending (List.nth s.pat !pos) { block = ymem; ixfn = ix };
            u_xss := Refset.union !u_xss (Refset.union u1 u2);
            `Done
        | _ -> `Fail)

(* Fig. 6b: rebase the array result of a mapnest body into its slot of
   the (already rebased) mapnest result.  Failure is not fatal: the
   per-thread result is then copied into the slot. *)
and rebase_mapnest_body st ctx info ~ymem ~j ~nest ~body ~res_ixfn =
  match body.res with
  | [ Var rv ] when is_array st rv ->
      let defined_in_body v =
        List.exists
          (fun s -> List.exists (fun pe -> pe.pv = v) s.pat)
          body.stms
      in
      let already =
        match mem_of st rv with
        | Some m -> m.block = ymem
        | None -> false
      in
      if (not (defined_in_body rv)) || already || already_failed st rv ymem
      then ()
      else begin
        st.stats.candidates <- st.stats.candidates + 1;
        let slot_slice =
          List.map (fun (v, _) -> Lmad.Fix (P.var v)) nest
          @ List.map
              (fun d -> Lmad.Range { start = P.zero; len = d; step = P.one })
              (match typ_of st rv with
              | Some (TArr (_, shape)) -> shape
              | _ -> [])
        in
        let slot_ixfn = Ixfn.slice slot_slice res_ixfn in
        let ctx' = Facts.with_nest ctx nest in
        let outer_defined =
          List.fold_left
            (fun acc (v, _) -> SS.add v acc)
            info.defined.(j) nest
        in
        let bi = block_info ~outer_defined ~outer_allocd:info.allocd.(j) body in
        let snapshot = Hashtbl.copy st.mems in
        let mark = st.claims in
        (* cross-thread safety: mapnest iterations execute out of order,
           so the chain writes of any thread must avoid the ymem uses of
           every thread (the conservative U^{<i} + U^{>i} condition) *)
        match
          walk st ctx' bi ~ymem ~start_j:(Array.length bi.arr) ~active:rv
            ~ixfn:slot_ixfn ~u0:Refset.empty ~stops:[]
        with
        | Fail ->
            trace st.opts "  mapnest body %s: rebase failed" rv;
            record_failure st rv ymem
        | Ok { u_final; w_total; pendings } ->
            let expand rs = Facts.expand ctx (List.rev nest) rs in
            let u_all = expand u_final and w_all = expand w_total in
            let ok =
              check_disjoint st ctx w_all u_all
              || (st.opts.enable_refinement
                 && other_threads_ok st ctx nest ~w:w_total ~u:u_final)
            in
            if not ok then begin
              (* cross-thread conflict: undo the body rebase *)
              Hashtbl.reset st.mems;
              Hashtbl.iter (Hashtbl.replace st.mems) snapshot;
              st.claims <- mark;
              record_failure st rv ymem
            end
            else begin
              st.stats.succeeded <- st.stats.succeeded + 1;
              let at_binding =
                match (info.arr.(j)).pat with pe :: _ -> pe.pv | [] -> rv
              in
              emit_circuit st ~ctx ~candidate:rv ~ymem ~at_binding
                ~last_use:false ~mark ~pendings;
              apply_pendings st pendings
            end
      end
  | _ -> ()

(* Fig. 4a / Fig. 6a: operands of a rebased concat become candidates at
   their row offsets. *)
and circuit_concat_operands st ctx info ~ymem ~j ~ops ~res_ixfn ~last_uses
    ~u0 ~at_binding =
  let offset = ref P.zero in
  List.iter
    (fun op ->
      let shape =
        match typ_of st op with Some (TArr (_, s)) -> s | _ -> []
      in
      match shape with
      | [] -> ()
      | d0 :: rest ->
          let here = !offset in
          offset := P.add !offset d0;
          let already =
            match mem_of st op with
            | Some m -> m.block = ymem
            | None -> false
          in
          if List.mem op last_uses && (not already)
             && not (already_failed st op ymem)
          then begin
            let slc =
              Lmad.Range { start = here; len = d0; step = P.one }
              :: List.map
                   (fun d ->
                     Lmad.Range { start = P.zero; len = d; step = P.one })
                   rest
            in
            let op_ixfn = Ixfn.slice slc res_ixfn in
            st.stats.candidates <- st.stats.candidates + 1;
            let mark = st.claims in
            match
              walk st ctx info ~ymem ~start_j:j ~active:op ~ixfn:op_ixfn
                ~u0 ~stops:[]
            with
            | Ok { pendings; _ } ->
                st.stats.succeeded <- st.stats.succeeded + 1;
                emit_circuit st ~ctx ~candidate:op ~ymem ~at_binding
                  ~last_use:true ~mark ~pendings;
                apply_pendings st pendings
            | Fail -> record_failure st op ymem
          end)
    ops

and apply_pendings st pendings =
  List.iter
    (fun { pe; mem } ->
      pe.pmem <- Some mem;
      Hashtbl.replace st.mems pe.pv mem;
      st.stats.rebased_vars <- st.stats.rebased_vars + 1)
    pendings

(* ---------------------------------------------------------------- *)
(* Circuit-point detection                                            *)
(* ---------------------------------------------------------------- *)

let rec optimize_block st ctx ~outer_defined ~outer_allocd (b : block) : unit
    =
  let info = block_info ~outer_defined ~outer_allocd b in
  let n = Array.length info.arr in
  for k = n - 1 downto 0 do
    Chaos.probe "shortcircuit";
    let s = info.arr.(k) in
    (* recurse into sub-blocks first: innermost circuit points (e.g.
       NW's update inside the wavefront loop) are found there *)
    (match s.exp with
    | ELoop { params; var; bound; body } ->
        let ctx' = Facts.with_range ctx var bound in
        let inner_defined =
          List.fold_left
            (fun acc (pe, _) -> SS.add pe.pv acc)
            (SS.add var info.defined.(k))
            params
        in
        let inner_allocd =
          List.fold_left
            (fun acc (pe, _) ->
              if pe.pt = TMem then SS.add pe.pv acc else acc)
            info.allocd.(k) params
        in
        optimize_block st ctx' ~outer_defined:inner_defined
          ~outer_allocd:inner_allocd body
    | EMap { nest; body } ->
        let inner_defined =
          List.fold_left (fun acc (v, _) -> SS.add v acc) info.defined.(k) nest
        in
        optimize_block st (Facts.with_nest ctx nest)
          ~outer_defined:inner_defined
          ~outer_allocd:info.allocd.(k) body
    | EIf { tb; fb; _ } ->
        optimize_block st ctx ~outer_defined:info.defined.(k)
          ~outer_allocd:info.allocd.(k) tb;
        optimize_block st ctx ~outer_defined:info.defined.(k)
          ~outer_allocd:info.allocd.(k) fb
    | _ -> ());
    (* circuit point: update with a lastly-used array source *)
    match s.exp with
    | EUpdate { dst; slc; src = SrcArr bv }
      when List.mem bv s.last_uses && is_array st bv -> (
        match mem_of st dst with
        | None -> ()
        | Some dm -> (
            match Facts.sliced_ixfn ctx slc dm.ixfn with
            | None -> ()
            | Some tixfn -> (
                let already =
                  match mem_of st bv with
                  | Some m -> m.block = dm.block && Ixfn.equal m.ixfn tixfn
                  | None -> false
                in
                if already || already_failed st bv dm.block then ()
                else begin
                  st.stats.candidates <- st.stats.candidates + 1;
                  trace st.opts "circuit attempt: %s into %s[...] (update)" bv
                    dm.block;
                  let mark = st.claims in
                  match
                    walk st ctx info ~ymem:dm.block ~start_j:k ~active:bv
                      ~ixfn:tixfn ~u0:Refset.empty ~stops:[]
                  with
                  | Ok { pendings; _ } ->
                      st.stats.succeeded <- st.stats.succeeded + 1;
                      trace st.opts "  -> SUCCESS (%d vars)" (List.length pendings);
                      emit_circuit st ~ctx ~candidate:bv ~ymem:dm.block
                        ~at_binding:
                          (match s.pat with pe :: _ -> pe.pv | [] -> bv)
                        ~last_use:true ~mark ~pendings;
                      apply_pendings st pendings
                  | Fail ->
                      trace st.opts "  -> failed";
                      record_failure st bv dm.block
                end)))
    | EConcat ops when List.exists (fun o -> List.mem o s.last_uses) ops -> (
        (* standalone concat circuit point (Fig. 4a): operands move into
           the concat result's memory *)
        match s.pat with
        | [ pe ] -> (
            match mem_of st pe.pv with
            | Some rm ->
                circuit_concat_operands st ctx info ~ymem:rm.block ~j:k ~ops
                  ~res_ixfn:rm.ixfn ~last_uses:s.last_uses ~u0:Refset.empty
                  ~at_binding:pe.pv
            | None -> ())
        | _ -> ())
    | EMap { nest; body } ->
        (* implicit circuit point: per-thread result into the mapnest
           result's memory (Fig. 6b) *)
        (match (s.pat, mem_of st (List.hd s.pat).pv) with
        | [ _ ], Some rm ->
            rebase_mapnest_body st (Facts.with_nest ctx nest) info
              ~ymem:rm.block ~j:k ~nest ~body ~res_ixfn:rm.ixfn
        | _ -> ())
    | _ -> ()
  done

(* ---------------------------------------------------------------- *)
(* Entry point                                                        *)
(* ---------------------------------------------------------------- *)

let optimize ?(options = default_options) ?(rounds = 2) ?cert (p : prog) :
    prog * stats =
  let st = build_tables options cert (Lastuse.annotate p) p in
  let outer_defined =
    List.fold_left (fun acc pe -> SS.add pe.pv acc) SS.empty p.params
  in
  let outer_allocd =
    List.fold_left
      (fun acc pe ->
        match pe.pmem with Some m -> SS.add m.block acc | None -> acc)
      SS.empty p.params
  in
  for _ = 1 to rounds do
    optimize_block st p.ctx ~outer_defined ~outer_allocd p.body
  done;
  (p, st.stats)
