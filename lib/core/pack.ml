(* Offset-based block packing: the whole-program arena planner.

   Whole-block coalescing (Reuse) stops at "one block stands in for
   another".  This pass packs the blocks that survive it into arenas
   at certified byte offsets.  Two mechanisms feed one planner:

   - Local members: a block's own surviving EAllocs, with live
     intervals from the coalescer's first-reference machinery (as in
     the original per-lexical-block planner).  At the program's top
     level, a member escaping into the program result is packable too
     (its interval is open-ended - the arena outlives the program
     body), which folds result allocations into the program arena.

   - Promoted members: an allocation in a nested block - inside
     sequential loops, conditional arms and kernel bodies - whose
     size is evaluable at the top level and whose alias closure never
     escapes any crossed block's result.  Crossing a kernel multiplies
     the slot into a per-thread region (offset advanced by
     size * linearized thread index, so threads stay isolated exactly
     as per-thread arenas kept them); crossing a sequential loop keeps
     one slot that each iteration's logically fresh instance
     re-occupies - a lifetime hole in time, emitted as a
     [hole-disjoint] obligation and re-derived by the independent
     checker from per-iteration freshness.

   Placement is first-fit in emission order.  Interfering
   placements are provably address-disjoint; non-interfering
   placements may overlap (a lifetime hole across address space,
   certified with live-range disjointness).  One EAlloc of the
   provably-largest member end replaces the members' allocations; the
   member annotations are rebased - block renamed to the arena, the
   memory-side LMAD of the index function shifted by the placement
   offset - and the orphaned member EAllocs are left for Cleanup.

   Everything the prover cannot decide (a placement with no provable
   candidate offset, an arena extent it cannot order, a region size it
   cannot evaluate at top level) stays unpacked and is counted in the
   stats.  See pack.mli for the contract. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module SS = Ir.Ast.SS

(* ---------------------------------------------------------------- *)
(* Options and statistics                                            *)
(* ---------------------------------------------------------------- *)

type options = { verbose : bool }

let default_options = { verbose = false }

type stats = {
  mutable arenas : int;
  mutable packed : int;
  mutable unpacked : int;
  mutable offset_proofs : int;
  mutable holes : int;
  mutable promoted : int;
}

let fresh_stats () =
  {
    arenas = 0;
    packed = 0;
    unpacked = 0;
    offset_proofs = 0;
    holes = 0;
    promoted = 0;
  }

let pp_stats ppf (s : stats) =
  Report.section ~title:"block packing" ppf
    [
      ("arenas planned", string_of_int s.arenas);
      ("blocks packed", string_of_int s.packed);
      ("blocks left unpacked", string_of_int s.unpacked);
      ("offset/extent proofs", string_of_int s.offset_proofs);
      ("lifetime holes", string_of_int s.holes);
      ("members promoted cross-scope", string_of_int s.promoted);
    ]

let trace opts fmt =
  if opts.verbose then Fmt.epr (fmt ^^ "@.") else Fmt.kstr (fun _ -> ()) fmt

let arena_base = "arena"
let is_arena name = Ir.Names.base name = arena_base

(* ---------------------------------------------------------------- *)
(* Members and placements                                            *)
(* ---------------------------------------------------------------- *)

(* Cross-scope promotion data for a member whose allocation lives in a
   nested block but whose storage is planned in the program arena. *)
type promo = {
  pr_size : P.t;  (* resolved per-instance size *)
  pr_delta : P.t;  (* per-instance offset within the region *)
  pr_nests : (string * P.t) list;  (* crossed kernel binders, counts *)
  pr_loops : string list;  (* crossed sequential loop bindings *)
}

type member = {
  m_idx : int; (* statement index of the EAlloc; -1 for promoted *)
  m_name : string;
  m_size : P.t; (* size as written (in scope at the alloc site) *)
  m_rsize : P.t; (* resolved size, for the prover *)
  m_first : int; (* live interval: first / last referencing statement *)
  m_last : int;
  m_aliases : SS.t; (* names the block threads through loop params *)
  m_promo : promo option;
}

type placement = {
  p_m : member;
  p_off : P.t; (* offset as written, for the rebased index functions *)
  p_roff : P.t; (* resolved offset, for the prover and the certs *)
}

let interferes a b = a.m_first <= b.m_last && b.m_first <= a.m_last

(* The member's offset and size as they appear in claims: per-instance
   for promoted members (the checker re-derives the instance size from
   the member's EAlloc), region-level for local ones. *)
let claim_off p =
  match p.p_m.m_promo with
  | Some pr -> P.add p.p_roff pr.pr_delta
  | None -> p.p_roff

let claim_size p =
  match p.p_m.m_promo with Some pr -> pr.pr_size | None -> p.p_m.m_rsize

let claim_ctx ctx p =
  match p.p_m.m_promo with
  | None -> ctx
  | Some pr -> Facts.with_nest ctx pr.pr_nests

(* A mem name may occur in expression position as the initializer of a
   sequential loop's carried memory: the loop threads the block
   through a param and rebinds it in its result pattern.  Such a
   member is still packable - the initializer is renamed to the arena
   and the annotations of every name the block threads into (the
   param, the positional result, transitively) are shifted by the same
   placement offset.  This computes that alias closure, or [None] when
   some occurrence is anything else - in particular a rotation, where
   the loop body yields a *different* block into the member's carried
   position, so no single static offset is correct.  Those members
   stay unpacked. *)
let threaded_aliases (m : string) (b : block) : SS.t option =
  let aliases = ref (SS.singleton m) in
  let ok = ref true in
  let is_alias = function Var v -> SS.mem v !aliases | _ -> false in
  let rec grow_stm (s : stm) =
    match s.exp with
    | ELoop { params; body; _ } ->
        List.iteri
          (fun i ((pe : pat_elem), init) ->
            if is_alias init then (
              aliases := SS.add pe.pv !aliases;
              match List.nth_opt s.pat i with
              | Some (rpe : pat_elem) -> aliases := SS.add rpe.pv !aliases
              | None -> ok := false))
          params;
        grow_block body
    | EMap { body; _ } -> grow_block body
    | EIf { tb; fb; _ } ->
        grow_block tb;
        grow_block fb
    | _ -> ()
  and grow_block (blk : block) = List.iter grow_stm blk.stms in
  let rec fix () =
    let before = SS.cardinal !aliases in
    grow_block b;
    if SS.cardinal !aliases > before then fix ()
  in
  fix ();
  (* every expression occurrence must be sanctioned: a loop
     initializer, or the body yielding the alias straight back at its
     own carried position.  Anything else - an arm or kernel result, a
     swapped yield, an array operand - defeats a static offset. *)
  let rec check_stm (s : stm) =
    match s.exp with
    | ELoop { params; body; _ } ->
        List.iteri
          (fun i ((pe : pat_elem), _) ->
            let yields =
              match List.nth_opt body.res i with
              | Some (Var v) -> SS.mem v !aliases
              | _ -> false
            in
            if yields <> SS.mem pe.pv !aliases then ok := false)
          params;
        check_block ~res_ok:true body
    | EMap { body; _ } -> check_block ~res_ok:false body
    | EIf { cond; tb; fb } ->
        if is_alias cond then ok := false;
        check_block ~res_ok:false tb;
        check_block ~res_ok:false fb
    | e ->
        let occ = Facts.exp_vars e SS.empty in
        if SS.exists (fun v -> SS.mem v !aliases) occ then ok := false
  and check_block ~res_ok (blk : block) =
    List.iter check_stm blk.stms;
    if not res_ok then
      List.iter (fun a -> if is_alias a then ok := false) blk.res
  in
  check_block ~res_ok:false b;
  if !ok then Some !aliases else None

(* Shift the memory-side LMAD of an index function by [delta]
   elements: the chain's last link addresses the block, so adding the
   placement offset there rebases every access and commutes with the
   change-of-layout operations (which act on the head). *)
let shift_ixfn delta ixfn =
  if P.is_zero delta then ixfn
  else
    match List.rev (Ixfn.chain ixfn) with
    | last :: before ->
        let last' =
          Lmad.make (P.add (Lmad.offset last) delta) (Lmad.dims last)
        in
        Ixfn.of_chain (List.rev (last' :: before))
    | [] -> ixfn

(* Rebase one placement: annotations homed in the member itself move
   to the arena block at the shifted offset; annotations homed in a
   threaded alias keep their name (the alias is a binder that will
   hold the arena at run time) but shift all the same; the loop
   initializers naming the member are renamed to the arena.  Only the
   initializer rename rebuilds the expression - annotations live in
   mutable [pmem] fields. *)
let rebase_pe aliases oldm arena delta (pe : pat_elem) =
  match pe.pmem with
  | Some mi when mi.block = oldm ->
      pe.pmem <- Some { block = arena; ixfn = shift_ixfn delta mi.ixfn }
  | Some mi when SS.mem mi.block aliases ->
      pe.pmem <- Some { mi with ixfn = shift_ixfn delta mi.ixfn }
  | _ -> ()

let rec rebase_stm aliases oldm arena delta (s : stm) : stm =
  List.iter (rebase_pe aliases oldm arena delta) s.pat;
  let exp =
    match s.exp with
    | EMap m ->
        EMap { m with body = rebase_block aliases oldm arena delta m.body }
    | ELoop ({ params; body; _ } as lp) ->
        let params =
          List.map
            (fun ((pe : pat_elem), init) ->
              rebase_pe aliases oldm arena delta pe;
              let init =
                match init with Var v when v = oldm -> Var arena | a -> a
              in
              (pe, init))
            params
        in
        ELoop
          { lp with params; body = rebase_block aliases oldm arena delta body }
    | EIf i ->
        EIf
          {
            i with
            tb = rebase_block aliases oldm arena delta i.tb;
            fb = rebase_block aliases oldm arena delta i.fb;
          }
    | e -> e
  in
  { s with exp }

and rebase_block aliases oldm arena delta (b : block) : block =
  {
    stms = List.map (rebase_stm aliases oldm arena delta) b.stms;
    res = List.map (function Var v when v = oldm -> Var arena | a -> a) b.res;
  }

(* ---------------------------------------------------------------- *)
(* Placement                                                         *)
(* ---------------------------------------------------------------- *)

(* First-fit offset assignment.  Candidates for a member are offset 0
   and the end offsets of the already-placed members it interferes
   with, tried in placement order; a candidate is admissible when the
   member is provably disjoint from every placed interfering member.
   Non-interfering members need no proof - overlapping them is the
   point.  Members with no admissible candidate stay unpacked. *)
let place st ctx (members : member list) : placement list =
  let placed = ref [] in
  List.iter
    (fun m ->
      let interf = List.filter (fun p -> interferes p.p_m m) !placed in
      let cands =
        (P.zero, P.zero)
        :: List.map
             (fun p ->
               (P.add p.p_off p.p_m.m_size, P.add p.p_roff p.p_m.m_rsize))
             interf
      in
      let admissible (_, roff) =
        List.for_all
          (fun p ->
            Pr.prove_ge ctx roff (P.add p.p_roff p.p_m.m_rsize)
            || Pr.prove_ge ctx p.p_roff (P.add roff m.m_rsize))
          interf
      in
      match List.find_opt admissible cands with
      | Some (off, roff) ->
          st.offset_proofs <- st.offset_proofs + List.length interf;
          placed := !placed @ [ { p_m = m; p_off = off; p_roff = roff } ]
      | None -> ())
    members;
  !placed

(* The arena extent: a member end the prover can show dominates every
   other.  Built greedily; a placement whose end is incomparable to
   the running extent is dropped back to unpacked. *)
let extent_of st ctx (placements : placement list) =
  let kept, ext =
    List.fold_left
      (fun (kept, ext) p ->
        let e = P.add p.p_off p.p_m.m_size
        and re = P.add p.p_roff p.p_m.m_rsize in
        match ext with
        | None -> (p :: kept, Some (e, re))
        | Some (_, cur_re) when Pr.prove_ge ctx cur_re re ->
            st.offset_proofs <- st.offset_proofs + 1;
            (p :: kept, ext)
        | Some (_, cur_re) when Pr.prove_ge ctx re cur_re ->
            st.offset_proofs <- st.offset_proofs + 1;
            (p :: kept, Some (e, re))
        | Some _ -> (kept, ext))
      ([], None) placements
  in
  (List.rev kept, ext)

(* Place in emission order, then size the arena over what placed. *)
let plan st ctx (members : member list) =
  extent_of st ctx (place st ctx members)

(* ---------------------------------------------------------------- *)
(* Member discovery                                                  *)
(* ---------------------------------------------------------------- *)

(* The block's surviving allocations as live-interval members (local
   view: interval indices are statement indices of [b]), partitioned
   into packable candidates and blocked members.  With
   [allow_escape], a member escaping through the block result is kept
   with an open-ended interval ([m_last = length stms]) - only sound
   at the program's top level, where the arena outlives the body. *)
let block_members ?(allow_escape = false) (sc : Facts.scope) (b : block) =
  let stms = Array.of_list b.stms in
  let refs = Array.map (Facts.block_refs sc.mems) stms in
  let escape = Facts.res_refs sc.mems b in
  let hard = Facts.exp_vars_block b SS.empty in
  let n = Array.length stms in
  let first_ref names =
    let first = ref max_int in
    Array.iteri
      (fun i r ->
        if SS.exists (fun a -> SS.mem a r) names && i < !first then first := i)
      refs;
    !first
  in
  let last_ref names =
    let last = ref (-1) in
    Array.iteri
      (fun i r -> if SS.exists (fun a -> SS.mem a r) names then last := i)
      refs;
    !last
  in
  let members = ref [] in
  Array.iteri
    (fun i s ->
      match (s.pat, s.exp) with
      | [ pe ], EAlloc sz when pe.pt = TMem ->
          let aliases =
            match threaded_aliases pe.pv b with
            | Some al -> al
            | None -> SS.singleton pe.pv
          in
          let first = first_ref aliases in
          if first < max_int then
            let escapes = SS.exists (fun a -> SS.mem a escape) aliases in
            members :=
              ( {
                  m_idx = i;
                  m_name = pe.pv;
                  m_size = sz;
                  m_rsize = Facts.resolve sc.scalars sz;
                  m_first = first;
                  m_last = (if escapes && allow_escape then n else last_ref aliases);
                  m_aliases = aliases;
                  m_promo = None;
                },
                escapes )
              :: !members
      | _ -> ())
    stms;
  let members = List.rev !members in
  (* eligibility: no escaping alias (unless escape is allowed), no
     arena re-packing, and any expression-position occurrence
     accounted for by loop threading *)
  let candidates, blocked =
    List.partition
      (fun (m, escapes) ->
        let threaded = SS.cardinal m.m_aliases > 1 in
        ((not (SS.mem m.m_name hard)) || threaded)
        && ((not escapes) || allow_escape)
        && not (is_arena m.m_name))
      members
  in
  (List.map fst candidates, List.map fst blocked)

(* Drop members threading through a shared alias: two offsets for one
   binder are unsatisfiable - keep the first. *)
let dedup_aliases (members : member list) =
  let _, keep, out =
    List.fold_left
      (fun (seen, keep, out) m ->
        if SS.exists (fun a -> SS.mem a seen) m.m_aliases then
          (seen, keep, m :: out)
        else (SS.union seen m.m_aliases, m :: keep, out))
      (SS.empty, [], []) members
  in
  (List.rev keep, List.rev out)

(* ---------------------------------------------------------------- *)
(* Cross-scope promotion candidates                                  *)
(* ---------------------------------------------------------------- *)

type pcand = {
  pc_name : string;
  pc_aliases : SS.t;
  pc_size : P.t;  (* resolved per-instance size *)
  pc_region : P.t;  (* resolved whole-region size at the top level *)
  pc_delta : P.t;  (* per-instance offset within the region *)
  pc_nests : (string * P.t) list;
  pc_loops : string list;  (* crossed loops, innermost first *)
  pc_top : int;  (* the top-level statement the member lives under *)
}

(* Promotable members of [b]'s subtree, lifted to [b]'s level.  A
   member survives a crossing only when nothing in its alias closure
   (nor any array annotated into it - [res_refs] resolves arrays to
   their blocks) escapes through the result of the block it leaves:
   with no escape channel the member is confined to its enclosing
   statement, so a sequential-loop crossing is a lifetime hole (each
   iteration's instance was fresh) and a kernel crossing multiplies
   the slot into a per-thread region. *)
let rec promotable sc (b : block) : pcand list =
  let sc = Facts.add_block sc b in
  let local, _ = block_members sc b in
  let local, _ = dedup_aliases local in
  let locals =
    List.map
      (fun m ->
        {
          pc_name = m.m_name;
          pc_aliases = m.m_aliases;
          pc_size = m.m_rsize;
          pc_region = m.m_rsize;
          pc_delta = P.zero;
          pc_nests = [];
          pc_loops = [];
          pc_top = 0;
        })
      local
  in
  let all = locals @ List.concat_map (promotable_under sc) b.stms in
  (* nothing aliasing a candidate may escape through this block's
     result *)
  let esc = Facts.res_refs sc.mems b in
  let resv =
    List.fold_left
      (fun acc -> function Var v -> SS.add v acc | _ -> acc)
      SS.empty b.res
  in
  List.filter
    (fun pc ->
      not
        (SS.exists (fun a -> SS.mem a esc || SS.mem a resv) pc.pc_aliases))
    all

(* The promotable members of [s]'s sub-blocks, lifted across [s]: a
   loop adds itself to the crossed loops, a mapnest multiplies the
   region by its thread count. *)
and promotable_under sc (s : stm) : pcand list =
  match s.exp with
  | ELoop { body; _ } -> (
      match s.pat with
      | [] -> []
      | pe :: _ ->
          List.map
            (fun pc -> { pc with pc_loops = pc.pc_loops @ [ pe.pv ] })
            (promotable sc body))
  | EMap { nest; body } ->
      let counts =
        List.map (fun (v, bound) -> (v, Facts.resolve sc.scalars bound)) nest
      in
      let total = P.prod (List.map snd counts) in
      let lin =
        List.fold_left
          (fun acc (v, c) -> P.add (P.mul acc c) (P.var v))
          P.zero counts
      in
      List.map
        (fun pc ->
          {
            pc with
            pc_delta = P.add pc.pc_delta (P.mul pc.pc_region lin);
            pc_region = P.mul pc.pc_region total;
            pc_nests = counts @ pc.pc_nests;
          })
        (promotable sc body)
  | EIf { tb; fb; _ } -> promotable sc tb @ promotable sc fb
  | _ -> []

(* ---------------------------------------------------------------- *)
(* Certificates and commitment                                       *)
(* ---------------------------------------------------------------- *)

(* Count the arena's lifetime holes and, when certifying, emit its
   obligations: [fits-in-arena] per placement, [hole-disjoint] per
   sequential loop a promoted member crosses, and per pair either
   [packed-disjoint] (interfering) or - when the pair's offset ranges
   are not provably disjoint - [hole-disjoint] (non-interfering: an
   overlap in address space is a lifetime hole, certified by
   live-range disjointness). *)
let emit_certs st cert ctx arena rextent (placements : placement list) =
  let rw =
    Certify.Packing
      { arena; members = List.map (fun p -> p.p_m.m_name) placements }
  in
  (* a claim's context carries the thread nests of the placements
     [ps] it mentions *)
  let emit ps claim =
    Option.iter
      (fun r -> Certify.emit r rw ~ctx:(List.fold_left claim_ctx ctx ps) claim)
      cert
  in
  let hole p q iter =
    Certify.Hole_disjoint
      {
        arena;
        a = p.p_m.m_name;
        a_off = claim_off p;
        a_size = claim_size p;
        b = q.p_m.m_name;
        b_off = claim_off q;
        b_size = claim_size q;
        iter;
      }
  in
  List.iter
    (fun p ->
      emit [ p ]
        (Certify.Fits_in_arena
           {
             arena;
             member = p.p_m.m_name;
             off = claim_off p;
             size = claim_size p;
             extent = rextent;
           });
      (* one hole per crossed sequential loop: the slot is re-occupied
         by each iteration's fresh instance *)
      match p.p_m.m_promo with
      | Some pr ->
          List.iter
            (fun loop ->
              st.holes <- st.holes + 1;
              emit [ p ] (hole p p (Some loop)))
            pr.pr_loops
      | None -> ())
    placements;
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
        List.iter
          (fun q ->
            if interferes p.p_m q.p_m then
              emit [ p; q ]
                (Certify.Packed_disjoint
                   {
                     arena;
                     a = p.p_m.m_name;
                     a_off = claim_off p;
                     a_size = claim_size p;
                     b = q.p_m.m_name;
                     b_off = claim_off q;
                     b_size = claim_size q;
                   })
            else
              let p_end = P.add p.p_roff p.p_m.m_rsize
              and q_end = P.add q.p_roff q.p_m.m_rsize in
              if
                not
                  (Pr.prove_ge ctx q.p_roff p_end
                  || Pr.prove_ge ctx p.p_roff q_end)
              then begin
                st.holes <- st.holes + 1;
                emit [ p; q ] (hole p q None)
              end)
          rest;
        pairs rest
  in
  pairs placements

(* Insert the arena allocation at [at] and rebase every placement over
   the remainder of the block. *)
let commit st opts cert names ctx (b : block) ~at ~extent ~rextent
    (placements : placement list) : block =
  let stms = Array.of_list b.stms in
  let n = Array.length stms in
  st.arenas <- st.arenas + 1;
  st.packed <- st.packed + List.length placements;
  let arena = Ir.Names.fresh names arena_base in
  emit_certs st cert ctx arena rextent placements;
  List.iter
    (fun p ->
      let delta =
        match p.p_m.m_promo with
        | Some pr ->
            st.promoted <- st.promoted + 1;
            P.add p.p_roff pr.pr_delta
        | None -> p.p_off
      in
      trace opts "pack: %s at offset %a of %s" p.p_m.m_name P.pp delta arena;
      for i = at to n - 1 do
        stms.(i) <- rebase_stm p.p_m.m_aliases p.p_m.m_name arena delta stms.(i)
      done)
    placements;
  let arena_stm = stm [ pat_elem arena TMem ] (EAlloc extent) in
  let res =
    List.map
      (fun a ->
        match a with
        | Var v
          when List.exists
                 (fun p -> p.p_m.m_name = v)
                 placements ->
            Var arena
        | a -> a)
      b.res
  in
  {
    stms =
      Array.to_list (Array.sub stms 0 at)
      @ arena_stm :: Array.to_list (Array.sub stms at (n - at));
    res;
  }

(* ---------------------------------------------------------------- *)
(* Per-block packing (nested blocks)                                 *)
(* ---------------------------------------------------------------- *)

(* The arena allocation goes right after the last member EAlloc and
   must dominate every member's first reference; hoisting has moved
   the allocations to the block top, so this holds - when it does not,
   drop trailing allocations until it does. *)
let rec prune ms =
  match ms with
  | [] | [ _ ] -> ms
  | _ ->
      let min_first = List.fold_left (fun a m -> min a m.m_first) max_int ms
      and max_idx = List.fold_left (fun a m -> max a m.m_idx) (-1) ms in
      if max_idx < min_first then ms
      else prune (List.filter (fun m -> m.m_idx <> max_idx) ms)

let pack_block st opts cert names (sc : Facts.scope) (b : block) : block =
  let ctx = sc.ctx in
  let candidates, blocked = block_members sc b in
  let candidates, aliased_out = dedup_aliases candidates in
  let blocked = blocked @ aliased_out in
  let pruned = prune candidates in
  let placements, ext = plan st ctx pruned in
  match (placements, ext) with
  | _ :: _ :: _, Some (extent, rextent) ->
      st.unpacked <-
        st.unpacked + List.length blocked
        + (List.length candidates - List.length placements);
      let at =
        1 + List.fold_left (fun a p -> max a p.p_m.m_idx) (-1) placements
      in
      commit st opts cert names ctx b ~at ~extent ~rextent placements
  | _ ->
      st.unpacked <-
        st.unpacked + List.length blocked + List.length candidates;
      b

(* ---------------------------------------------------------------- *)
(* Whole-program packing (the top level)                             *)
(* ---------------------------------------------------------------- *)

(* Pack the program's top block: its own members (result-escaping ones
   included, with open-ended intervals) together with the promotable
   members gathered from nested scopes.  A promoted member's interval
   collapses to its enclosing top-level statement - everything about
   it happens inside that one statement's subtree. *)
let pack_top st opts cert names (p : prog) : block =
  let b = p.body in
  let sc = Facts.add_block (Facts.top p) b in
  let ctx = sc.ctx in
  let candidates, blocked = block_members ~allow_escape:true sc b in
  (* promotion candidates, anchored at top-level statement indices *)
  let pcands =
    List.concat
      (List.mapi
         (fun i s ->
           List.map (fun pc -> { pc with pc_top = i }) (promotable_under sc s))
         b.stms)
  in
  (* a region the prover cannot evaluate at the top level (or whose
     placement would mention non-top names beyond the nest binders)
     stays local *)
  let top_names =
    List.fold_left
      (fun acc (pe : pat_elem) -> SS.add pe.pv acc)
      SS.empty p.params
    |> fun acc ->
    List.fold_left
      (fun acc (s : stm) ->
        List.fold_left (fun acc (pe : pat_elem) -> SS.add pe.pv acc) acc s.pat)
      acc b.stms
  in
  let top_ok poly nests =
    List.for_all
      (fun v ->
        SS.mem v top_names || List.exists (fun (w, _) -> w = v) nests)
      (P.vars poly)
  in
  let pcands =
    List.filter
      (fun pc ->
        top_ok pc.pc_region [] && top_ok pc.pc_delta pc.pc_nests
        && top_ok pc.pc_size [])
      pcands
  in
  let promoted_members =
    List.map
      (fun pc ->
        {
          m_idx = -1;
          m_name = pc.pc_name;
          m_size = pc.pc_region;
          m_rsize = pc.pc_region;
          m_first = pc.pc_top;
          m_last = pc.pc_top;
          m_aliases = pc.pc_aliases;
          m_promo =
            Some
              {
                pr_size = pc.pc_size;
                pr_delta = pc.pc_delta;
                pr_nests = pc.pc_nests;
                pr_loops = pc.pc_loops;
              };
        })
      pcands
  in
  let candidates, aliased_out =
    dedup_aliases (candidates @ promoted_members)
  in
  let blocked = blocked @ aliased_out in
  let pruned = prune candidates in
  (* promoted members that fail to place here fall back to the
     per-block phase, which does its own accounting - only top-local
     members are tallied as unpacked by this phase *)
  let locals ms = List.filter (fun m -> m.m_promo = None) ms in
  let give_up () =
    st.unpacked <-
      st.unpacked + List.length blocked + List.length (locals candidates);
    b
  in
  let placements, ext = plan st ctx pruned in
  match (placements, ext) with
  | _ :: _ :: _, Some (extent, rextent) ->
      let at =
        max
          (1 + List.fold_left (fun a p -> max a p.p_m.m_idx) (-1) placements)
          0
      in
      let min_first =
        List.fold_left (fun a p -> min a p.p_m.m_first) max_int placements
      in
      (* the extent must be evaluable where the arena is allocated *)
      let defined =
        List.fold_left
          (fun acc (pe : pat_elem) -> SS.add pe.pv acc)
          SS.empty p.params
        |> fun acc ->
        List.fold_left
          (fun acc (s : stm) ->
            List.fold_left
              (fun acc (pe : pat_elem) -> SS.add pe.pv acc)
              acc s.pat)
          acc
          (List.filteri (fun i _ -> i < at) b.stms)
      in
      let ready =
        List.for_all (fun v -> SS.mem v defined) (P.vars rextent)
      in
      if at > min_first || not ready then give_up ()
      else begin
        st.unpacked <-
          st.unpacked + List.length blocked
          + (List.length (locals candidates)
            - List.length (locals (List.map (fun p -> p.p_m) placements)));
        commit st opts cert names ctx b ~at ~extent ~rextent placements
      end
  | _ -> give_up ()

(* ---------------------------------------------------------------- *)
(* Program walk                                                      *)
(* ---------------------------------------------------------------- *)

(* Pack this block (unless the whole-program planner already did),
   then recurse into sequential loops, conditionals and mapnest
   bodies with the prover context extended by the iteration and
   thread ranges.  Members the whole-program planner promoted have no
   annotations left, so per-block packing skips them naturally;
   in-kernel members it could not lift still pack into per-thread
   arenas here. *)
let rec walk ?(pack_here = true) st opts cert names sc (b : block) : block =
  let sc = Facts.add_block sc b in
  let b = if pack_here then pack_block st opts cert names sc b else b in
  let stms =
    List.map
      (fun s ->
        Chaos.probe "pack";
        Facts.map_sub_blocks (walk st opts cert names) sc s)
      b.stms
  in
  { b with stms }

let optimize ?(options = default_options) ?cert (p : prog) : prog * stats =
  let st = fresh_stats () in
  let names = Ir.Names.of_prog p in
  let p = { p with body = pack_top st options cert names p } in
  let body = walk ~pack_here:false st options cert names (Facts.top p) p.body in
  ({ p with body }, st)
