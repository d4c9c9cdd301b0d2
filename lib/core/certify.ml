(* Memcert: per-rewrite proof certificates and the independent
   translation-validation checker (see certify.mli for the design).

   The checker shares no decision code with the emitting passes.  It
   shares with them only the last-use analysis ({!Lastuse.annotate},
   run on a clone of the pre-pass program when the certificate holds a
   last-use claim) and the public entry points of the prover and the
   LMAD library ({!Pr.prove_ge}, {!Refset.disjoint}, {!Lmad.bounds} +
   {!Pr.check_in_range}), through which every symbolic fact is
   re-proved.  Every other structural fact (live ranges, scalar
   definitions, memory-side LMADs, annotations, allocation sites) is
   re-derived here by private scans of the pre-/post-pass programs,
   each run at most once per check, instead of being read from the
   Facts module the passes and memlint share, so a bug there cannot
   acquit a certificate (DESIGN.md section 10).  When the symbolic
   re-proof fails, the claim is *concretized*: small shape assignments
   consistent with the recorded prover context are enumerated, and the
   claim is evaluated exactly.  A violation under an admissible
   assignment refutes the obligation (the certificate is wrong, not
   merely unproven); otherwise the claim is reported as dynamically
   validated at those sizes. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module Refset = Lmads.Refset
module SS = Ir.Ast.SS
module IS = Set.Make (Int)

(* ---------------------------------------------------------------- *)
(* Certificate IR                                                    *)
(* ---------------------------------------------------------------- *)

type rewrite =
  | Copy_elide of { candidate : string; dst_block : string; at_binding : string }
  | Chain_removal of { loop_binding : string; position : int }
  | Rotation of {
      loop_binding : string;
      init_block : string;
      init_arr : string;
      spare_block : string;
    }
  | Coalesce of { earlier : string; later : string }
  | Hoist of { block : string; loop_binding : string }
  | Mem_intro of { block : string; binding : string }
  | Exist_intro of { binding : string }
  | Float_up of { binding : string }
  | Dead_removal of { block : string }
  | If_hoist of { block : string; if_binding : string }
  | Packing of { arena : string; members : string list }

type claim =
  | Nonoverlap of { w : Refset.t; u : Refset.t }
  | Size_ge of { larger : P.t; smaller : P.t }
  | Bounds_in of { lmad : Lmad.t; lo : P.t; hi : P.t }
  | Last_use of { var : string; at_binding : string }
  | Rebased of { var : string; mem : mem_info }
  | Dead_mem of { names : string list }
  | Dead_after of { names : string list; binding : string }
  | Live_disjoint of { earlier : string; later : string; movers : string list }
  | Dies_each_iter of { block : string; loop_binding : string }
  | Sole_occupant of { block : string; ixfn : Ixfn.t }
  | Grouped of { mem : string; wits : string list; arr : string }
  | Footprint_fits of { block : string; arr : string }
  | Dominance of { binding : string }
  | Unreferenced of { name : string }
  | Dies_in_arm of { block : string; if_binding : string; arm : bool }
  | Packed_disjoint of {
      arena : string;
      a : string;
      a_off : P.t;
      a_size : P.t;
      b : string;
      b_off : P.t;
      b_size : P.t;
    }
  | Fits_in_arena of {
      arena : string;
      member : string;
      off : P.t;
      size : P.t;
      extent : P.t;
    }
  | Hole_disjoint of {
      arena : string;
      a : string;
      a_off : P.t;
      a_size : P.t;
      b : string;
      b_off : P.t;
      b_size : P.t;
      iter : string option;
    }

type obligation = {
  o_id : int;
  o_pass : string;
  o_rewrite : rewrite;
  o_claim : claim;
  o_ctx : Pr.t;
}

(* ---------------------------------------------------------------- *)
(* Recording                                                         *)
(* ---------------------------------------------------------------- *)

type recorder = {
  r_pass : string;
  mutable r_obls : obligation list; (* reversed *)
  mutable r_next : int;
}

let recorder ~pass = { r_pass = pass; r_obls = []; r_next = 0 }

let emit r o_rewrite ?(ctx = Pr.empty) o_claim =
  r.r_obls <-
    { o_id = r.r_next; o_pass = r.r_pass; o_rewrite; o_claim; o_ctx = ctx }
    :: r.r_obls;
  r.r_next <- r.r_next + 1

let obligations r = List.rev r.r_obls
let count r = r.r_next

(* ---------------------------------------------------------------- *)
(* Rendering of the IR                                               *)
(* ---------------------------------------------------------------- *)

let pp_rewrite ppf = function
  | Copy_elide { candidate; dst_block; at_binding } ->
      Fmt.pf ppf "copy-elide %s into %s at %s" candidate dst_block at_binding
  | Chain_removal { loop_binding; position } ->
      Fmt.pf ppf "chain-removal position %d of loop %s" position loop_binding
  | Rotation { loop_binding; init_block; init_arr; spare_block } ->
      Fmt.pf ppf "rotation of loop %s (init %s@%s, spare %s)" loop_binding
        init_arr init_block spare_block
  | Coalesce { earlier; later } ->
      Fmt.pf ppf "coalesce %s <- %s" earlier later
  | Hoist { block; loop_binding } ->
      Fmt.pf ppf "hoist %s out of loop %s" block loop_binding
  | Mem_intro { block; binding } ->
      Fmt.pf ppf "memory introduction of %s for %s" block binding
  | Exist_intro { binding } ->
      Fmt.pf ppf "existential grouping introduced at %s" binding
  | Float_up { binding } -> Fmt.pf ppf "float %s to its block top" binding
  | Dead_removal { block } ->
      Fmt.pf ppf "dead-allocation removal of %s" block
  | If_hoist { block; if_binding } ->
      Fmt.pf ppf "hoist %s out of an arm of if %s" block if_binding
  | Packing { arena; members } ->
      Fmt.pf ppf "pack %a into arena %s"
        Fmt.(list ~sep:comma string)
        members arena

let pp_claim ppf = function
  | Nonoverlap { w; u } ->
      Fmt.pf ppf "nonoverlap W=%a # U=%a" Refset.pp w Refset.pp u
  | Size_ge { larger; smaller } ->
      Fmt.pf ppf "size %a >= %a" P.pp larger P.pp smaller
  | Bounds_in { lmad; lo; hi } ->
      Fmt.pf ppf "bounds of %a within [%a, %a]" Lmad.pp lmad P.pp lo P.pp hi
  | Last_use { var; at_binding } ->
      Fmt.pf ppf "last use of %s at %s" var at_binding
  | Rebased { var; mem } ->
      Fmt.pf ppf "%s rebased to %s with %a" var mem.block Ixfn.pp mem.ixfn
  | Dead_mem { names } ->
      Fmt.pf ppf "dead memory %a" Fmt.(list ~sep:comma string) names
  | Dead_after { names; binding } ->
      Fmt.pf ppf "%a dead after %s" Fmt.(list ~sep:comma string) names binding
  | Live_disjoint { earlier; later; movers } ->
      Fmt.pf ppf "live ranges %s before %s (movers %a)" earlier later
        Fmt.(list ~sep:comma string)
        movers
  | Dies_each_iter { block; loop_binding } ->
      Fmt.pf ppf "%s dies within each iteration of %s" block loop_binding
  | Sole_occupant { block; ixfn } ->
      Fmt.pf ppf "sole occupant of %s is %a" block Ixfn.pp ixfn
  | Grouped { mem; wits; arr } ->
      Fmt.pf ppf "existential group [%s%a; %s]" mem
        Fmt.(list ~sep:nop (fmt "; %s"))
        wits arr
  | Footprint_fits { block; arr } ->
      Fmt.pf ppf "footprint of %s fits its block %s" arr block
  | Dominance { binding } ->
      Fmt.pf ppf "definition of %s dominates its uses" binding
  | Unreferenced { name } -> Fmt.pf ppf "zero references to %s" name
  | Dies_in_arm { block; if_binding; arm } ->
      Fmt.pf ppf "%s dies within the %s arm of if %s" block
        (if arm then "true" else "false")
        if_binding
  | Packed_disjoint { arena; a; a_off; a_size; b; b_off; b_size } ->
      Fmt.pf ppf
        "placements %s at [%a, %a+%a) and %s at [%a, %a+%a) disjoint in \
         arena %s"
        a P.pp a_off P.pp a_off P.pp a_size b P.pp b_off P.pp b_off P.pp
        b_size arena
  | Fits_in_arena { arena; member; off; size; extent } ->
      Fmt.pf ppf "%s at offset %a of size %a fits arena %s of extent %a"
        member P.pp off P.pp size arena P.pp extent
  | Hole_disjoint { arena; a; a_off; a_size; b; b_off; b_size; iter } -> (
      match iter with
      | Some loop ->
          Fmt.pf ppf
            "hole: %s at [%a, %a+%a) of arena %s re-occupied across \
             iterations of %s"
            a P.pp a_off P.pp a_off P.pp a_size arena loop
      | None ->
          Fmt.pf ppf
            "hole: %s at [%a, %a+%a) and %s at [%a, %a+%a) share arena %s \
             with disjoint live ranges"
            a P.pp a_off P.pp a_off P.pp a_size b P.pp b_off P.pp b_off P.pp
            b_size arena)

let claim_kind = function
  | Nonoverlap _ -> "nonoverlap"
  | Size_ge _ -> "size-ge"
  | Bounds_in _ -> "bounds-in"
  | Last_use _ -> "last-use"
  | Rebased _ -> "rebased"
  | Dead_mem _ -> "dead-mem"
  | Dead_after _ -> "dead-after"
  | Live_disjoint _ -> "live-disjoint"
  | Dies_each_iter _ -> "dies-each-iter"
  | Sole_occupant _ -> "sole-occupant"
  | Grouped _ -> "grouped"
  | Footprint_fits _ -> "footprint-fits"
  | Dominance _ -> "dominance"
  | Unreferenced _ -> "unreferenced"
  | Dies_in_arm _ -> "dies-in-arm"
  | Packed_disjoint _ -> "packed-disjoint"
  | Fits_in_arena _ -> "fits-in-arena"
  | Hole_disjoint _ -> "hole-disjoint"

(* ---------------------------------------------------------------- *)
(* Verdicts and reports                                              *)
(* ---------------------------------------------------------------- *)

type verdict = Proved | Concretized of int list | Failed of string
type checked = { obl : obligation; verdict : verdict; detail : string }

type report = {
  pass : string;
  emitted : int;
  proved : int;
  concretized : int;
  failed : int;
  checked : checked list;
}

let ok r = r.failed = 0

let failures r =
  List.filter (fun c -> match c.verdict with Failed _ -> true | _ -> false)
    r.checked

let pp_verdict ppf = function
  | Proved -> Fmt.string ppf "proved"
  | Concretized [] -> Fmt.string ppf "undecided"
  | Concretized sizes ->
      Fmt.pf ppf "validated dynamically at sizes %a"
        Fmt.(list ~sep:comma int)
        sizes
  | Failed w -> Fmt.pf ppf "FAILED: %s" w

let pp_checked ppf c =
  Fmt.pf ppf "#%d [%s] %a: %a - %a" c.obl.o_id (claim_kind c.obl.o_claim)
    pp_rewrite c.obl.o_rewrite pp_verdict c.verdict Fmt.text c.detail

let pp_report ppf r =
  Report.section ~title:(Fmt.str "memcert %s" r.pass) ppf
    [
      ("obligations emitted", string_of_int r.emitted);
      ("proved", string_of_int r.proved);
      ("concretized", string_of_int r.concretized);
      ("failed", string_of_int r.failed);
    ];
  let fails = failures r in
  if fails <> [] then Fmt.pf ppf "@,%a" (Report.items ~bullet:"-" pp_checked) fails

(* ---------------------------------------------------------------- *)
(* Independent program scans                                         *)
(* ---------------------------------------------------------------- *)

(* i64 scalar definitions, rebuilt here from scratch (the same shape as
   the passes' table in Facts, but re-derived so a table bug there
   cannot leak into the check). *)
let atom_poly = function
  | Int c -> Some (P.const c)
  | Var v -> Some (P.var v)
  | _ -> None

let scalar_def (s : stm) : (string * P.t) option =
  match (s.pat, s.exp) with
  | [ pe ], EIdx p when pe.pt = TScalar I64 -> Some (pe.pv, p)
  | [ pe ], EAtom (Int c) when pe.pt = TScalar I64 -> Some (pe.pv, P.const c)
  | [ pe ], EAtom (Var v) when pe.pt = TScalar I64 -> Some (pe.pv, P.var v)
  | [ pe ], EBin (op, a, b) when pe.pt = TScalar I64 -> (
      match (atom_poly a, atom_poly b, op) with
      | Some pa, Some pb, Add -> Some (pe.pv, P.add pa pb)
      | Some pa, Some pb, Sub -> Some (pe.pv, P.sub pa pb)
      | Some pa, Some pb, Mul -> Some (pe.pv, P.mul pa pb)
      | _ -> None)
  | _ -> None

let scalar_table (stms : stm list) : P.t P.SM.t =
  List.fold_left
    (fun acc s ->
      match scalar_def s with Some (v, d) -> P.SM.add v d acc | None -> acc)
    P.SM.empty stms

let resolve scal p = try P.subst_fixpoint scal p with Failure _ -> p
let resolve_lmad scal l = try Lmad.subst_fixpoint scal l with Failure _ -> l

let memory_lmad ixfn =
  match List.rev (Ixfn.chain ixfn) with
  | l :: _ -> l
  | [] ->
      Fault.internal ~where:"Certify.memory_lmad" "empty index-function chain"

(* Every pattern element of the program, including loop-carried
   parameters (which the short-circuiting pass rebases too). *)
let all_pat_elems (p : prog) (stms : stm list) : pat_elem list =
  let acc = ref (List.rev p.params) in
  List.iter
    (fun s ->
      List.iter (fun pe -> acc := pe :: !acc) s.pat;
      match s.exp with
      | ELoop { params; _ } ->
          List.iter (fun (pe, _) -> acc := pe :: !acc) params
      | _ -> ())
    stms;
  List.rev !acc

(* Names occurring in expression position that are not loop-carried
   plumbing: allowed are a TMem parameter's init atom, the body-result
   atom feeding a TMem parameter position, and an arm-result atom
   feeding a TMem binder of an [if] (the conditional forwards the
   block's identity exactly like a loop's mem position). *)
let nonstructural_names (b : block) : SS.t =
  let tmem_positions ts =
    List.concat (List.mapi (fun i t -> if t = TMem then [ i ] else []) ts)
  in
  let rec go_block ?(tmem_res = []) acc (b : block) =
    List.fold_left
      (fun acc a -> match a with Var v -> SS.add v acc | _ -> acc)
      (List.fold_left go_stm acc b.stms)
      (List.filteri (fun i _ -> not (List.mem i tmem_res)) b.res)
  and go_stm acc s =
    match s.exp with
    | ELoop { params; bound; body; _ } ->
        let acc =
          List.fold_left
            (fun acc (pe, a) ->
              match a with Var v when pe.pt <> TMem -> SS.add v acc | _ -> acc)
            (SS.union acc (fv_idx bound))
            params
        in
        go_block
          ~tmem_res:(tmem_positions (List.map (fun (pe, _) -> pe.pt) params))
          acc body
    | EMap { nest; body } ->
        go_block
          (List.fold_left (fun acc (_, n) -> SS.union acc (fv_idx n)) acc nest)
          body
    | EIf { cond; tb; fb } ->
        let tmem_res = tmem_positions (List.map (fun pe -> pe.pt) s.pat) in
        go_block ~tmem_res
          (go_block ~tmem_res (SS.union acc (fv_atom cond)) tb)
          fb
    | e -> SS.union acc (fv_exp e)
  in
  go_block SS.empty b

(* Expression-position occurrences in a block, nested statements and
   block results included (annotations do not count: arrays living in
   a block are fine).  A compound statement's own are its header's: a
   loop's initializers and count, a mapnest's counts, an [if]'s
   condition.  Each statement's are computed once per table [tbl]. *)
let rec exp_occurrences tbl (b : block) : SS.t =
  List.fold_left
    (fun acc a -> match a with Var v -> SS.add v acc | _ -> acc)
    (List.fold_left
       (fun acc s -> SS.union acc (stm_occurrences tbl s))
       SS.empty b.stms)
    b.res

and stm_occurrences tbl (s : stm) : SS.t =
  match Stm_tbl.find_opt tbl s with
  | Some o -> o
  | None ->
      let here = fv_exp_with (fun _ -> SS.empty) s.exp in
      let o =
        match s.exp with
        | EMap { body; _ } | ELoop { body; _ } ->
            SS.union here (exp_occurrences tbl body)
        | EIf { tb; fb; _ } ->
            SS.union here
              (SS.union (exp_occurrences tbl tb) (exp_occurrences tbl fb))
        | _ -> here
      in
      Stm_tbl.add tbl s o;
      o

(* One program's scans and indices, each built at most once per
   {!check} and only if some obligation reads it.  A check only reads
   its programs, so every index stays valid for the check's length,
   and none outlives it. *)
type scan = {
  prog : prog;
  all_stms : stm list Lazy.t; (* every statement, pre-order *)
  pes : pat_elem list Lazy.t; (* [all_pat_elems] *)
  binders : SS.t Lazy.t; (* the names of [pes] *)
  annot_names : SS.t Lazy.t;
      (* every name an annotation mentions: its block and the names of
         its index function *)
  fv : stm -> SS.t; (* free variables, each statement walked once *)
  body_fv : SS.t Lazy.t; (* free variables of the body *)
  nonstructural : SS.t Lazy.t; (* [nonstructural_names] of the body *)
  occ : SS.t Stm_tbl.t; (* [stm_occurrences] *)
  body_occ : SS.t Lazy.t; (* [exp_occurrences] of the body *)
  scal : P.t P.SM.t Lazy.t; (* i64 scalar definitions *)
}

let scan (prog : prog) : scan =
  let all_stms = lazy (all_stms_block prog.body) in
  let pes = lazy (all_pat_elems prog (Lazy.force all_stms)) in
  let fv = fv_memo_stm (fv_memo ()) in
  let occ = Stm_tbl.create 64 in
  {
    prog;
    all_stms;
    pes;
    binders =
      lazy (SS.of_list (List.map (fun pe -> pe.pv) (Lazy.force pes)));
    annot_names =
      lazy
        (List.fold_left
           (fun acc pe ->
             match pe.pmem with
             | Some m ->
                 List.fold_left (Fun.flip SS.add) (SS.add m.block acc)
                   (Ixfn.vars m.ixfn)
             | None -> acc)
           SS.empty (Lazy.force pes));
    fv;
    body_fv = lazy (fv_block_with fv prog.body);
    nonstructural = lazy (nonstructural_names prog.body);
    occ;
    body_occ = lazy (exp_occurrences occ prog.body);
    scal = lazy (scalar_table (Lazy.force all_stms));
  }

let find_pat_elem (x : scan) v =
  List.find_opt (fun pe -> pe.pv = v) (Lazy.force x.pes)

let binds binding (s : stm) = List.exists (fun pe -> pe.pv = binding) s.pat

let find_stm (x : scan) binding =
  List.find_opt (binds binding) (Lazy.force x.all_stms)

(* Is [name] bound anywhere in the program (loop parameters included)
   or free in its body? *)
let survives (x : scan) name =
  SS.mem name (Lazy.force x.binders) || SS.mem name (Lazy.force x.body_fv)

(* The chain of (enclosing block, statement index) pairs from the
   program body down to the statement binding [binding]. *)
let rec find_path (b : block) binding : (block * int) list option =
  let rec go i = function
    | [] -> None
    | s :: rest -> (
        if binds binding s then Some [ (b, i) ]
        else
          let sub =
            match s.exp with
            | EMap { body; _ } | ELoop { body; _ } -> find_path body binding
            | EIf { tb; fb; _ } -> (
                match find_path tb binding with
                | Some r -> Some r
                | None -> find_path fb binding)
            | _ -> None
          in
          match sub with
          | Some r -> Some ((b, i) :: r)
          | None -> go (i + 1) rest)
  in
  go 0 b.stms

(* The enclosing block and statement index of the binding. *)
let find_in_block (b : block) binding : (block * int) option =
  Option.map (fun path -> List.hd (List.rev path)) (find_path b binding)

let alloc_size (x : scan) block : P.t option =
  List.find_map
    (fun s ->
      match (s.pat, s.exp) with
      | [ pe ], EAlloc sz when pe.pv = block -> Some sz
      | _ -> None)
    (Lazy.force x.all_stms)

let annots_into (x : scan) block : (string * mem_info) list =
  List.filter_map
    (fun pe ->
      match pe.pmem with
      | Some m when m.block = block -> Some (pe.pv, m)
      | _ -> None)
    (Lazy.force x.pes)

(* Does any annotation mention [name] (as its block or inside its index
   function)? *)
let annot_mentions (x : scan) name = SS.mem name (Lazy.force x.annot_names)

(* Does [name] occur in expression position other than as loop-carried
   plumbing ([nonstructural_names])? *)
let nonstructural_occurrence (x : scan) name =
  SS.mem name (Lazy.force x.nonstructural)

(* ---------------------------------------------------------------- *)
(* Concretization                                                    *)
(* ---------------------------------------------------------------- *)

(* Seed sizes for the concretizer: small, distinct, and co-prime, so
   aliasing accidents at one size rarely repeat at the next. *)
let seeds = [ 2; 3; 5; 7 ]

(* Enumeration guard: refsets whose concrete point count exceeds this
   are not enumerated (the seed is skipped, not failed). *)
let max_points = 20_000

type concrete_outcome = CViolated of int * string | CValidated of int list

(* Run [eval] (true = claim holds, false = violated with the given
   witness) under every seed's assignment that satisfies the context
   ({!Pr.valuation}). *)
let concretely (ctx : Pr.t)
    (eval : (string -> int) -> [ `Holds | `Violated of string | `Skip ]) :
    concrete_outcome =
  let rec go validated = function
    | [] -> CValidated (List.rev validated)
    | seed :: rest -> (
        match Pr.valuation ctx seed with
        | None -> go validated rest
        | Some env -> (
            match (try eval env with _ -> `Skip) with
            | `Holds -> go (seed :: validated) rest
            | `Violated w -> CViolated (seed, w)
            | `Skip -> go validated rest))
  in
  go [] seeds

(* ---------------------------------------------------------------- *)
(* Per-claim checking                                                *)
(* ---------------------------------------------------------------- *)

let concrete_verdict = function
  | CViolated (seed, w) -> (Failed w, Fmt.str "refuted at sizes = %d" seed)
  | CValidated [] ->
      (Concretized [], "undecided - no admissible concrete instance")
  | CValidated sizes ->
      ( Concretized sizes,
        Fmt.str "undecided symbolically; validated dynamically at sizes %a"
          Fmt.(list ~sep:comma int)
          sizes )

let check_nonoverlap ctx w u =
  if Refset.disjoint ~depth:3 ctx w u then
    (Proved, "write and use sets re-proved disjoint")
  else
    concrete_verdict
      (concretely ctx (fun env ->
           match (Refset.concretize env w, Refset.concretize env u) with
           | Some ws, Some us ->
               let card =
                 List.fold_left (fun a c -> a + Lmad.concrete_card c) 0 ws
                 + List.fold_left (fun a c -> a + Lmad.concrete_card c) 0 us
               in
               if card > max_points then `Skip
               else
                 let wset =
                   IS.of_list (List.concat_map Lmad.concrete_points ws)
                 in
                 let hit =
                   List.concat_map Lmad.concrete_points us
                   |> List.find_opt (fun o -> IS.mem o wset)
                 in
                 (match hit with
                 | Some o ->
                     `Violated
                       (Fmt.str "offset %d is both written and used" o)
                 | None -> `Holds)
           | _ -> `Skip (* Top has no finite enumeration *)))

let check_size_ge ctx larger smaller =
  if Pr.prove_ge ctx larger smaller then
    (Proved, Fmt.str "re-proved %a >= %a" P.pp larger P.pp smaller)
  else
    concrete_verdict
      (concretely ctx (fun env ->
           let lv = P.eval env larger and sv = P.eval env smaller in
           if lv >= sv then `Holds
           else
             `Violated
               (Fmt.str "%a = %d < %a = %d" P.pp larger lv P.pp smaller sv)))

let check_bounds_in ctx lmad lo hi =
  let concrete () =
    concrete_verdict
      (concretely ctx (fun env ->
           let c = Lmad.concretize env lmad in
           let lo_v = P.eval env lo and hi_v = P.eval env hi in
           match Lmad.concrete_extrema c with
           | None -> `Holds (* empty set: trivially in bounds *)
           | Some (mn, mx) ->
               if mn < lo_v then
                 `Violated (Fmt.str "minimum offset %d < %d" mn lo_v)
               else if mx > hi_v then
                 `Violated (Fmt.str "maximum offset %d > %d" mx hi_v)
               else `Holds))
  in
  match Lmad.bounds ctx lmad with
  | None -> concrete ()
  | Some (mn, mx) -> (
      match
        ( Pr.check_in_range ctx mn ~lo ~hi,
          Pr.check_in_range ctx mx ~lo ~hi )
      with
      | Pr.In_range, Pr.In_range ->
          (Proved, Fmt.str "extrema [%a, %a] re-proved in range" P.pp mn P.pp mx)
      | Pr.Out_of_range, _ | _, Pr.Out_of_range ->
          ( Failed
              (Fmt.str "extrema [%a, %a] provably outside [%a, %a]" P.pp mn
                 P.pp mx P.pp lo P.pp hi),
            "footprint proved out of bounds" )
      | _ -> concrete ())

(* Packing placements.  Independence from the pass: the member's size
   and the arena's extent are re-derived from the post program's
   allocations (never taken from the claim), so the only trusted
   quantity is the placement offset itself - and a forged offset is
   refuted numerically, symbolically or by concretization witness. *)
let check_fits_in_arena (post : scan) ctx ~arena ~member ~off =
  match (alloc_size post arena, alloc_size post member) with
  | None, _ ->
      ( Failed (Fmt.str "arena %s is not allocated in the post program" arena),
        "structural" )
  | _, None ->
      ( Failed
          (Fmt.str "member %s is not allocated in the post program" member),
        "structural" )
  | Some ext, Some msz ->
      let scal = Lazy.force post.scal in
      let ext = resolve scal ext and msz = resolve scal msz in
      let endp = P.add off msz in
      if Pr.prove_ge ctx off P.zero && Pr.prove_ge ctx ext endp then
        ( Proved,
          Fmt.str "re-proved 0 <= %a and %a <= %a" P.pp off P.pp endp P.pp ext
        )
      else
        concrete_verdict
          (concretely ctx (fun env ->
               let o = P.eval env off
               and e = P.eval env endp
               and x = P.eval env ext in
               if o < 0 then `Violated (Fmt.str "offset %a = %d < 0" P.pp off o)
               else if e > x then
                 `Violated
                   (Fmt.str "placement end %d exceeds arena extent %d" e x)
               else `Holds))

let check_packed_disjoint (post : scan) ctx ~a ~a_off ~b ~b_off =
  match (alloc_size post a, alloc_size post b) with
  | None, _ ->
      (Failed (Fmt.str "member %s is not allocated in the post program" a),
       "structural")
  | _, None ->
      (Failed (Fmt.str "member %s is not allocated in the post program" b),
       "structural")
  | Some a_size, Some b_size ->
      let scal = Lazy.force post.scal in
      let a_size = resolve scal a_size and b_size = resolve scal b_size in
      let a_end = P.add a_off a_size and b_end = P.add b_off b_size in
      if Pr.prove_ge ctx b_off a_end || Pr.prove_ge ctx a_off b_end then
        (Proved, "placements re-proved address-disjoint")
      else
        concrete_verdict
          (concretely ctx (fun env ->
               let ao = P.eval env a_off and ae = P.eval env a_end in
               let bo = P.eval env b_off and be = P.eval env b_end in
               if ae <= ao || be <= bo then `Holds (* an empty placement *)
               else if ao < be && bo < ae then
                 `Violated
                   (Fmt.str "offset %d lies in both placements" (max ao bo))
               else `Holds))

(* [annotated]: the statements of a clone of the pre-pass program, with
   the last uses {!Lastuse.annotate} re-derives there. *)
let check_last_use annotated var at_binding =
  match List.find_opt (binds at_binding) annotated with
  | None ->
      ( Failed (Fmt.str "no statement binds %s in the pre-pass program"
            at_binding),
        "structural" )
  | Some s ->
      if List.mem var s.last_uses then
        (Proved, "last use re-derived on the pre-pass program")
      else
        ( Failed
            (Fmt.str "%s is not lastly used at %s (last uses there: %a)" var
               at_binding
               Fmt.(list ~sep:comma string)
               s.last_uses),
          "structural" )

let check_rebased (post : scan) ctx ~final var (mem : mem_info) =
  if not final then
    (Proved, "superseded by a later rebase of the same binding")
  else
    let scal = Lazy.force post.scal in
    match find_pat_elem post var with
    | None ->
        (Failed (Fmt.str "%s is not bound in the post-pass program" var),
         "structural")
    | Some pe -> (
        match pe.pmem with
        | None ->
            (Failed (Fmt.str "%s carries no memory annotation" var),
             "structural")
        | Some m when m.block <> mem.block ->
            ( Failed
                (Fmt.str "%s is annotated into %s, certificate says %s" var
                   m.block mem.block),
              "structural" )
        | Some m
          when not
                 (Ixfn.equal m.ixfn mem.ixfn
                 || Ixfn.equal
                      (Ixfn.subst_fixpoint scal m.ixfn)
                      (Ixfn.subst_fixpoint scal mem.ixfn)) ->
            ( Failed
                (Fmt.str "index function of %s differs from the certificate"
                   var),
              "structural" )
        | Some _ -> (
            (* The annotation matches; additionally re-derive that its
               footprint fits the destination block, an obligation the
               emitting pass never discharges itself. *)
            match alloc_size post mem.block with
            | None -> (Proved, "structural match (no static allocation size)")
            | Some size -> (
                let l = resolve_lmad scal (memory_lmad mem.ixfn) in
                let size = resolve scal size in
                let last = P.sub size P.one in
                let validate () =
                  (* Conservative: a concrete out-of-bounds here is not a
                     refutation, because the recorded context may lack
                     ranges for enclosing loop indices; only successful
                     validations are reported. *)
                  let sizes =
                    List.filter
                      (fun seed ->
                        match Pr.valuation ctx seed with
                        | None -> false
                        | Some env -> (
                            try
                              let c = Lmad.concretize env l in
                              let sz = P.eval env size in
                              match Lmad.concrete_extrema c with
                              | None -> true
                              | Some (mn, mx) -> mn >= 0 && mx < sz
                            with _ -> false))
                      seeds
                  in
                  if sizes = [] then
                    (Proved, "structural match; footprint undecided")
                  else
                    ( Concretized sizes,
                      Fmt.str
                        "structural match; footprint validated at sizes %a"
                        Fmt.(list ~sep:comma int)
                        sizes )
                in
                match Lmad.bounds ctx l with
                | None -> validate ()
                | Some (mn, mx) -> (
                    match
                      ( Pr.check_in_range ctx mn ~lo:P.zero ~hi:last,
                        Pr.check_in_range ctx mx ~lo:P.zero ~hi:last )
                    with
                    | Pr.In_range, Pr.In_range ->
                        (Proved, "structural match; footprint re-proved")
                    | Pr.Out_of_range, _ | _, Pr.Out_of_range ->
                        ( Failed
                            (Fmt.str
                               "footprint [%a, %a] provably exceeds block %s \
                                of size %a"
                               P.pp mn P.pp mx mem.block P.pp size),
                          "footprint" )
                    | _ -> validate ()))))

let check_dead_mem pre post names =
  let bad =
    List.find_map
      (fun name ->
        if annot_mentions pre name then
          Some (Fmt.str "%s is still referenced by an annotation" name)
        else if nonstructural_occurrence pre name then
          Some (Fmt.str "%s has a non-structural use in the pre program" name)
        else if survives post name then
          Some (Fmt.str "%s survives in the post-pass program" name)
        else None)
      names
  in
  match bad with
  | Some w -> (Failed w, "structural")
  | None -> (Proved, "dead chain re-derived on both programs")

let check_dead_after (pre : scan) names binding =
  match find_in_block pre.prog.body binding with
  | None ->
      (Failed (Fmt.str "no statement binds %s" binding), "structural")
  | Some (blk, i) -> (
      let s = List.nth blk.stms i in
      let nm = SS.of_list names in
      let body_bad =
        match s.exp with
        | ELoop { body; _ } ->
            not (SS.disjoint nm (fv_block_with pre.fv body))
        | _ -> false
      in
      let offender_after =
        List.filteri (fun j _ -> j > i) blk.stms
        |> List.find_opt (fun s' -> not (SS.disjoint nm (pre.fv s')))
      in
      let res_bad =
        List.exists
          (function Var v -> SS.mem v nm | _ -> false)
          blk.res
      in
      if body_bad then
        ( Failed
            (Fmt.str "%a referenced inside the loop body"
               Fmt.(list ~sep:comma string)
               names),
          "structural" )
      else
        match offender_after with
        | Some s' ->
            ( Failed
                (Fmt.str "%a referenced after %s (at the binding of %a)"
                   Fmt.(list ~sep:comma string)
                   names binding
                   Fmt.(list ~sep:comma string)
                   (List.map (fun pe -> pe.pv) s'.pat)),
              "structural" )
        | None ->
            if res_bad then
              ( Failed
                  (Fmt.str "%a escape through the block result"
                     Fmt.(list ~sep:comma string)
                     names),
                "structural" )
            else (Proved, "liveness re-derived: dead after the loop"))

(* Live ranges by statement index inside [blk]: a statement belongs to
   a range when its free variables (annotations included) intersect the
   range's name set. *)
let live_range ~fv blk name_set =
  let last = ref None and first = ref None in
  List.iteri
    (fun j s ->
      if not (SS.disjoint name_set (fv s)) then begin
        if !first = None then first := Some j;
        last := Some j
      end)
    blk.stms;
  (!first, !last)

(* A coalesce [L -> E] is justified when, in the pre-pass program, the
   last sibling statement referencing E's range precedes the first one
   referencing L's.  The ranges are re-derived from scratch: E's names
   are the block itself, every array annotated into it, and everything
   previous coalesces merged into it (the accumulator mirrors the
   pass's monotone [e_last], but is recomputed here); L's names are the
   block, its annotated arrays, and the moved variables recorded in the
   obligation.  The comparison happens in the innermost block whose
   top-level statements reference both ranges - allocation statements
   are deliberately not used as anchors, because cross-scope hoisting
   moves them before coalescing runs. *)
let check_live_disjoint ~pre movers_acc earlier later movers =
  let acc_of b =
    Option.value ~default:SS.empty (Hashtbl.find_opt movers_acc b)
  in
  let occupants blk =
    SS.of_list (List.map fst (annots_into pre blk))
  in
  let names_e = SS.add earlier (SS.union (occupants earlier) (acc_of earlier)) in
  let names_l =
    SS.add later
      (SS.union (occupants later) (SS.of_list movers))
  in
  let finish verdict detail =
    Hashtbl.replace movers_acc earlier (SS.union (acc_of earlier) names_l);
    (verdict, detail)
  in
  let hits names (b : block) =
    List.exists (fun s -> not (SS.disjoint names (pre.fv s))) b.stms
  in
  let rec find_common (b : block) : block option =
    let deeper =
      List.fold_left
        (fun acc s ->
          match acc with
          | Some _ -> acc
          | None -> (
              match s.exp with
              | EMap { body; _ } | ELoop { body; _ } -> find_common body
              | EIf { tb; fb; _ } -> (
                  match find_common tb with
                  | Some r -> Some r
                  | None -> find_common fb)
              | _ -> None))
        None b.stms
    in
    match deeper with
    | Some r -> Some r
    | None -> if hits names_e b && hits names_l b then Some b else None
  in
  match find_common pre.prog.body with
  | None ->
      finish Proved
        "ranges never co-referenced in the pre program (or the block was \
         introduced by a prior rewrite of the same pass)"
  | Some blk -> (
      let _, le = live_range ~fv:pre.fv blk names_e in
      let fl, _ = live_range ~fv:pre.fv blk names_l in
      let escapes =
        List.exists
          (function Var v -> SS.mem v names_l | _ -> false)
          blk.res
      in
      if escapes then
        finish
          (Failed (Fmt.str "block %s escapes its enclosing block" later))
          "structural"
      else
        match (le, fl) with
        | Some le, Some fl when le >= fl ->
            finish
              (Failed
                 (Fmt.str
                    "live ranges overlap: %s last referenced at statement \
                     %d, %s first referenced at %d"
                    earlier le later fl))
              "structural"
        | _ ->
            finish Proved "live ranges re-derived disjoint on the pre program")

let check_dies_each_iter pre post block loop_binding =
  match find_stm pre loop_binding with
  | None ->
      (Failed (Fmt.str "no loop binds %s in the pre program" loop_binding),
       "structural")
  | Some s -> (
      match s.exp with
      | ELoop { body; _ } ->
          (* Anywhere within the body subtree: a block hoisted out of
             two nested loops yields one obligation per loop, and for
             the outer one the pre-pass allocation is still inside the
             inner body. *)
          let allocated_inside = find_in_block body block <> None in
          if not allocated_inside then
            ( Failed
                (Fmt.str "%s is not allocated within the body of %s" block
                   loop_binding),
              "structural" )
          else if
            SS.mem block (exp_occurrences pre.occ body)
            && annot_mentions pre block
          then
            (* A structural occurrence alone is fine when nothing is
               annotated into the block anywhere: chain removal orphans
               such plumbing earlier in the same pass, and hoisting an
               allocation whose contents are never referenced cannot
               change behaviour. *)
            ( Failed
                (Fmt.str
                   "%s occurs in expression position inside the loop body \
                    (contents may survive an iteration)"
                   block),
              "structural" )
          else (
            (* post side: the allocation must have left the body *)
            match find_stm post loop_binding with
            | Some { exp = ELoop { body = post_body; _ }; _ } ->
                if find_in_block post_body block <> None then
                  ( Failed
                      (Fmt.str "%s is still allocated inside the loop body"
                         block),
                    "structural" )
                else if find_in_block post.prog.body block = None then
                  ( Failed
                      (Fmt.str "%s has no allocation in the post program"
                         block),
                    "structural" )
                else
                  (Proved, "per-iteration death re-derived; allocation hoisted")
            | _ ->
                ( Failed
                    (Fmt.str "loop %s not found in the post program"
                       loop_binding),
                  "structural" ))
      | _ ->
          (Failed (Fmt.str "%s does not bind a loop" loop_binding),
           "structural"))

(* ---------------------------------------------------------------- *)
(* Lifetime holes                                                    *)
(* ---------------------------------------------------------------- *)

(* Names aliasing anything in [seed] through structural plumbing
   inside [b]: loop-carried parameters whose initializer is an alias,
   the loop/if binders fed an alias through a result position, and
   plain copies.  Grown to a fixpoint; over-approximation is safe
   (a larger closure can only make the escape check stricter). *)
let carried_closure (b : block) (seed : SS.t) : SS.t =
  let cl = ref seed and changed = ref true in
  let add v =
    if not (SS.mem v !cl) then begin
      cl := SS.add v !cl;
      changed := true
    end
  in
  let feed (pat : pat_elem list) (res : atom list) =
    List.iteri
      (fun i a ->
        match a with
        | Var v when SS.mem v !cl -> (
            match List.nth_opt pat i with Some pe -> add pe.pv | None -> ())
        | _ -> ())
      res
  in
  let rec go_stm (s : stm) =
    match s.exp with
    | ELoop { params; body; _ } ->
        List.iter
          (fun ((pe : pat_elem), init) ->
            match init with
            | Var v when SS.mem v !cl -> add pe.pv
            | _ -> ())
          params;
        go_block body;
        feed s.pat body.res
    | EIf { tb; fb; _ } ->
        go_block tb;
        go_block fb;
        feed s.pat tb.res;
        feed s.pat fb.res
    | EMap { body; _ } -> go_block body
    | EAtom (Var v) when SS.mem v !cl ->
        List.iter (fun (pe : pat_elem) -> add pe.pv) s.pat
    | _ -> ()
  and go_block (blk : block) = List.iter go_stm blk.stms in
  while !changed do
    changed := false;
    go_block b
  done;
  !cl

(* The member's name set for liveness purposes: the block, its carried
   aliases, and every array annotated into any of them. *)
let hole_names (x : scan) (blk : block) member =
  let cl = carried_closure blk (SS.singleton member) in
  let cl =
    SS.fold
      (fun n acc ->
        List.fold_left
          (fun acc (arr, _) -> SS.add arr acc)
          acc (annots_into x n))
      cl cl
  in
  carried_closure blk cl

(* [iter = Some loop]: the member's arena slot is re-occupied by the
   logically fresh per-iteration instances of the same allocation.
   Sound when, in the pre program, nothing aliasing the member (nor
   any array living in it) flows to the next iteration - and the only
   such channel is the loop body's result.  Post side: the member's
   annotations are gone (rebased into the arena), and the arena is
   allocated outside the loop, so the slot really does survive the
   iteration boundary. *)
let check_hole_iter pre post ~arena ~member ~loop_binding =
  match find_stm pre loop_binding with
  | None ->
      (Failed (Fmt.str "no loop binds %s in the pre program" loop_binding),
       "structural")
  | Some s -> (
      match s.exp with
      | ELoop { body; _ } ->
          if find_in_block body member = None then
            ( Failed
                (Fmt.str "%s is not allocated within the body of %s" member
                   loop_binding),
              "structural" )
          else
            let cl = hole_names pre body member in
            let escaping =
              List.filter_map
                (function Var v when SS.mem v cl -> Some v | _ -> None)
                body.res
            in
            if escaping <> [] then
              ( Failed
                  (Fmt.str
                     "%a escape through the body result of %s: contents of \
                      %s may survive an iteration"
                     Fmt.(list ~sep:comma string)
                     escaping loop_binding member),
                "structural" )
            else if annot_mentions post member then
              ( Failed
                  (Fmt.str
                     "%s is still annotated in the post program (not rebased \
                      into %s)"
                     member arena),
                "structural" )
            else (
              match find_stm post loop_binding with
              | Some { exp = ELoop { body = post_body; _ }; _ } ->
                  if find_in_block post_body arena <> None then
                    ( Failed
                        (Fmt.str
                           "arena %s is allocated inside the loop body (no \
                            hole across iterations)"
                           arena),
                      "structural" )
                  else if alloc_size post arena = None then
                    ( Failed
                        (Fmt.str "arena %s is not allocated in the post \
                                  program" arena),
                      "structural" )
                  else
                    ( Proved,
                      "per-iteration freshness re-derived; the slot re-use \
                       is a lifetime hole" )
              | _ ->
                  ( Failed
                      (Fmt.str "loop %s not found in the post program"
                         loop_binding),
                    "structural" ))
      | _ ->
          (Failed (Fmt.str "%s does not bind a loop" loop_binding),
           "structural"))

(* [iter = None]: two distinct members overlap in address space, so
   their live ranges must be disjoint.  Re-derivation: either the
   offset ranges are provably address-disjoint after all (sizes from
   the post program's allocations, as for packed-disjoint), or the
   live ranges - re-derived in the deepest pre-program block where the
   two members' paths diverge - are provably execution-disjoint.  A
   member bound deeper than the divergence block is confined to its
   enclosing statement (lexical scoping: nothing outside the subtree
   can name it), so its interval collapses to that statement's
   index. *)
let check_hole_pair (pre : scan) (post : scan) ctx ~a ~a_off ~b ~b_off =
  match (alloc_size post a, alloc_size post b) with
  | None, _ ->
      (Failed (Fmt.str "member %s is not allocated in the post program" a),
       "structural")
  | _, None ->
      (Failed (Fmt.str "member %s is not allocated in the post program" b),
       "structural")
  | Some a_size, Some b_size -> (
      let scal = Lazy.force post.scal in
      let a_size = resolve scal a_size and b_size = resolve scal b_size in
      let a_end = P.add a_off a_size and b_end = P.add b_off b_size in
      if Pr.prove_ge ctx b_off a_end || Pr.prove_ge ctx a_off b_end then
        (Proved, "offset ranges re-proved address-disjoint (no hole)")
      else
        match (find_path pre.prog.body a, find_path pre.prog.body b) with
        | None, _ ->
            ( Failed
                (Fmt.str "member %s is not allocated in the pre program" a),
              "structural" )
        | _, None ->
            ( Failed
                (Fmt.str "member %s is not allocated in the pre program" b),
              "structural" )
        | Some pa, Some pb -> (
            (* walk to the divergence point *)
            let rec walk pa pb =
              match (pa, pb) with
              | (blk, ia) :: ra, (_, ib) :: rb ->
                  if ia <> ib || ra = [] || rb = [] then
                    Some (blk, (ia, ra = []), (ib, rb = []))
                  else walk ra rb
              | _ -> None
            in
            match walk pa pb with
            | None ->
                ( Failed (Fmt.str "%s and %s are the same binding" a b),
                  "structural" )
            | Some (blk, (ia, a_here), (ib, b_here)) -> (
                let n = List.length blk.stms in
                let interval member idx bound_here =
                  if not bound_here then (idx, idx)
                  else
                    let names = hole_names pre blk member in
                    let f, l = live_range ~fv:pre.fv blk names in
                    let escapes =
                      List.exists
                        (function Var v -> SS.mem v names | _ -> false)
                        blk.res
                    in
                    let last =
                      if escapes then n else Option.value l ~default:idx
                    in
                    (Option.value f ~default:idx, last)
                in
                let fa, la = interval a ia a_here
                and fb, lb = interval b ib b_here in
                if la < fb || lb < fa then
                  ( Proved,
                    Fmt.str
                      "live ranges re-derived disjoint: %s spans statements \
                       [%d, %d], %s spans [%d, %d]"
                      a fa la b fb lb )
                else
                  concrete_verdict
                    (concretely ctx (fun env ->
                         let ao = P.eval env a_off
                         and ae = P.eval env a_end in
                         let bo = P.eval env b_off
                         and be = P.eval env b_end in
                         if ae <= ao || be <= bo then `Holds
                         else if ao < be && bo < ae then
                           `Violated
                             (Fmt.str
                                "offset %d lies in both placements while \
                                 live ranges overlap (%s spans [%d, %d], %s \
                                 spans [%d, %d])"
                                (max ao bo) a fa la b fb lb)
                         else `Holds)))))

let check_hole_disjoint pre post ctx ~arena ~a ~a_off ~b ~b_off ~iter =
  match iter with
  | Some loop_binding -> check_hole_iter pre post ~arena ~member:a ~loop_binding
  | None -> check_hole_pair pre post ctx ~a ~a_off ~b ~b_off

let check_sole_occupant (post : scan) block ixfn =
  let scal = Lazy.force post.scal in
  let offender =
    List.find_opt
      (fun (_, m) ->
        not
          (Ixfn.equal m.ixfn ixfn
          || Ixfn.equal
               (Ixfn.subst_fixpoint scal m.ixfn)
               (Ixfn.subst_fixpoint scal ixfn)))
      (annots_into post block)
  in
  match offender with
  | Some (v, _) ->
      ( Failed
          (Fmt.str "%s occupies %s with a different index function" v block),
        "structural" )
  | None ->
      (Proved, "sole-occupancy re-derived over the post program's annotations")

(* An introduced existential group must appear in the post program as a
   contiguous [mem; witness...; array] run in the binding pattern, with
   the array annotated into its own group's memory and the arity of the
   branch results (or loop params/results) matching the pattern. *)
let check_grouped post mem wits arr =
  match find_stm post arr with
  | None ->
      ( Failed (Fmt.str "%s is not bound in the post-pass program" arr),
        "structural" )
  | Some s -> (
      let pats = Array.of_list s.pat in
      let n = Array.length pats in
      let expected = (mem :: wits) @ [ arr ] in
      let k = List.length expected in
      let i0 = ref (-1) in
      Array.iteri (fun i pe -> if pe.pv = mem && !i0 < 0 then i0 := i) pats;
      let run_matches =
        !i0 >= 0
        && !i0 + k <= n
        && List.for_all2
             (fun j name -> pats.(j).pv = name)
             (List.init k (fun j -> !i0 + j))
             expected
      in
      if not run_matches then
        ( Failed
            (Fmt.str "pattern of %s does not group [%a] contiguously" arr
               Fmt.(list ~sep:semi string)
               expected),
          "structural" )
      else if pats.(!i0).pt <> TMem then
        (Failed (Fmt.str "%s is not a memory binder" mem), "structural")
      else if
        List.exists
          (fun j -> pats.(j).pt <> TScalar I64)
          (List.init (k - 2) (fun j -> !i0 + 1 + j))
      then
        ( Failed (Fmt.str "a witness of %s is not an i64 scalar" arr),
          "structural" )
      else
        match pats.(!i0 + k - 1).pmem with
        | None ->
            ( Failed (Fmt.str "%s carries no memory annotation" arr),
              "structural" )
        | Some m when m.block <> mem ->
            ( Failed
                (Fmt.str "%s is annotated into %s, not its group's %s" arr
                   m.block mem),
              "structural" )
        | Some _ -> (
            match s.exp with
            | EIf { tb; fb; _ } ->
                if List.length tb.res = n && List.length fb.res = n then
                  (Proved, "grouping re-derived over the if's pattern and arms")
                else
                  ( Failed
                      (Fmt.str
                         "branch result arity differs from the pattern of %s"
                         arr),
                    "structural" )
            | ELoop { params; body; _ } ->
                if List.length params = n && List.length body.res = n then
                  ( Proved,
                    "grouping re-derived over the loop's pattern and params" )
                else
                  ( Failed
                      (Fmt.str
                         "loop param/result arity differs from the pattern of \
                          %s"
                         arr),
                    "structural" )
            | _ ->
                ( Failed (Fmt.str "%s is not bound by an if or a loop" arr),
                  "structural" )))

(* An introduced allocation is consistent with the index function it
   backs: everything is re-derived from the post program (the recorded
   block/array names only select where to look). *)
let check_footprint_fits (post : scan) ctx block arr =
  match find_pat_elem post arr with
  | None ->
      ( Failed (Fmt.str "%s is not bound in the post-pass program" arr),
        "structural" )
  | Some pe -> (
      match pe.pmem with
      | None ->
          (Failed (Fmt.str "%s carries no memory annotation" arr), "structural")
      | Some m when m.block <> block ->
          ( Failed
              (Fmt.str "%s is annotated into %s, certificate says %s" arr
                 m.block block),
            "structural" )
      | Some m -> (
          match alloc_size post block with
          | None ->
              ( Failed
                  (Fmt.str "%s has no allocation in the post program" block),
                "structural" )
          | Some size ->
              let scal = Lazy.force post.scal in
              let l = resolve_lmad scal (memory_lmad m.ixfn) in
              let size = resolve scal size in
              let last = P.sub size P.one in
              check_bounds_in ctx l P.zero last))

(* Dominance after hoisting: at the moved statement's post-pass
   position every free variable is already in scope, and nothing that
   executes before it references the moved binding. *)
let check_dominance (post : scan) binding =
  let verdict = ref None in
  let found = ref false in
  let set v = if !verdict = None then verdict := Some v in
  let rec go_block scope (b : block) =
    List.fold_left
      (fun scope s ->
        if !found || !verdict <> None then scope
        else begin
          (if List.exists (fun pe -> pe.pv = binding) s.pat then begin
             found := true;
             let fv =
               List.fold_left
                 (fun a pe -> SS.remove pe.pv a)
                 (post.fv s) s.pat
             in
             match SS.choose_opt (SS.diff fv scope) with
             | Some v ->
                 set
                   (Fmt.str "%s reads %s, which is not yet defined there"
                      binding v)
             | None -> ()
           end
           else begin
             if SS.mem binding (post.fv s) then
               set
                 (Fmt.str
                    "%s is referenced (at the binding of %a) before it is \
                     defined"
                    binding
                    Fmt.(list ~sep:comma string)
                    (List.map (fun pe -> pe.pv) s.pat));
             match s.exp with
             | ELoop { params; var; body; _ } ->
                 let inner =
                   List.fold_left
                     (fun sc (pe, _) -> SS.add pe.pv sc)
                     (SS.add var scope) params
                 in
                 ignore (go_block inner body)
             | EMap { nest; body } ->
                 let inner =
                   List.fold_left
                     (fun sc (v, _) -> SS.add v sc)
                     scope nest
                 in
                 ignore (go_block inner body)
             | EIf { tb; fb; _ } ->
                 ignore (go_block scope tb);
                 ignore (go_block scope fb)
             | _ -> ()
           end);
          List.fold_left (fun sc pe -> SS.add pe.pv sc) scope s.pat
        end)
      scope b.stms
  in
  let scope0 =
    List.fold_left (fun sc pe -> SS.add pe.pv sc) SS.empty post.prog.params
  in
  ignore (go_block scope0 post.prog.body);
  match !verdict with
  | Some w -> (Failed w, "structural")
  | None ->
      if !found then
        (Proved, "def-before-use re-derived at the post-pass position")
      else
        ( Failed (Fmt.str "%s is not bound in the post-pass program" binding),
          "structural" )

(* Dead-code removal: the block had zero remaining references in the
   pre program - no annotation, no expression-position occurrence (even
   structural loop plumbing keeps an allocation alive) - and is gone
   from the post program. *)
let check_unreferenced pre post name =
  if annot_mentions pre name then
    ( Failed (Fmt.str "%s is still referenced by an annotation" name),
      "structural" )
  else if SS.mem name (Lazy.force pre.body_occ) then
    ( Failed
        (Fmt.str "%s occurs in expression position in the pre program" name),
      "structural" )
  else if survives post name then
    (Failed (Fmt.str "%s survives in the post-pass program" name), "structural")
  else (Proved, "zero references re-derived; allocation removed")

(* As [exp_occurrences], but specialized to the body of an [if] arm
   and tolerant of existential threading.  Two relaxations, each
   re-derived here independently of the optimizer's eligibility tests
   in {!Reuse}:

   - an occurrence of the block as the initializer of a loop-carried
     *mem* parameter merely hands its identity to the loop, and is
     accepted provided the loop's mem result binder in the same tuple
     position is itself clean within the arm;

   - the identity may leave the arm through the arm's result, at a
     TMem position of the conditional, provided the receiving binder
     has a *dead identity*: no array is ever annotated into it, every
     occurrence is structural plumbing (a loop's mem position or an
     [if]'s mem position), and every binder that plumbing forwards
     the identity into is transitively dead as well.  Nobody ever
     reads through such a chain, so the contents still die in the arm
     - this is exactly the situation the dead-chain rewrite removes
     and certifies separately.

   Every other occurrence (operand, non-mem initializer, live arm
   result) is an escape. *)
let arm_escape_occurrence (pre : scan) (ifstm : stm) (armblk : block) name :
    bool =
  (* binders the identity of [target] is structurally forwarded into,
     program-wide: loop mem params it initializes (and their result
     binders), loop result binders whose body-result position it
     feeds, and [if] binders whose arm-result position it feeds *)
  let forwarded_binders target =
    let acc = ref [] in
    let add v = acc := v :: !acc in
    List.iter
      (fun (s : stm) ->
        match s.exp with
        | ELoop { params; body; _ } ->
            List.iteri
              (fun j ((pe : pat_elem), a) ->
                match a with
                | Var v when v = target && pe.pt = TMem -> (
                    add pe.pv;
                    match List.nth_opt s.pat j with
                    | Some (q : pat_elem) -> add q.pv
                    | None -> ())
                | _ -> ())
              params;
            List.iteri
              (fun j a ->
                match (a, List.nth_opt params j) with
                | Var v, Some ((pe : pat_elem), _)
                  when v = target && pe.pt = TMem -> (
                    match List.nth_opt s.pat j with
                    | Some (q : pat_elem) -> add q.pv
                    | None -> ())
                | _ -> ())
              body.res
        | EIf { tb; fb; _ } ->
            List.iter
              (fun (b : block) ->
                List.iteri
                  (fun j a ->
                    match (a, List.nth_opt s.pat j) with
                    | Var v, Some (q : pat_elem)
                      when v = target && q.pt = TMem ->
                        add q.pv
                    | _ -> ())
                  b.res)
              [ tb; fb ]
        | _ -> ())
      (Lazy.force pre.all_stms);
    !acc
  in
  let rec identity_dead seen target =
    SS.mem target seen
    ||
    let seen = SS.add target seen in
    (not (annot_mentions pre target))
    && (not (nonstructural_occurrence pre target))
    && List.for_all (identity_dead seen) (forwarded_binders target)
  in
  (* occurrences of [target] inside the arm: with [strict] every
     expression-position occurrence is an escape except an arm-result
     forward out of a TMem [if] position (collected into [out]);
     without it, loop-mem-init occurrences additionally yield the
     loop's result binder for the strict follow-up scan. *)
  let out = ref [] in
  let arm_occ ~strict target =
    let chain = ref [] in
    let rec stm_occ (s : stm) =
      match s.exp with
      | ELoop { params; bound; body; _ } ->
          let bad = ref (SS.mem target (fv_idx bound)) in
          List.iteri
            (fun j ((pe : pat_elem), a) ->
              match a with
              | Var v when v = target ->
                  if strict || pe.pt <> TMem then bad := true
                  else (
                    match List.nth_opt s.pat j with
                    | Some (q : pat_elem) -> chain := q.pv :: !chain
                    | None -> bad := true)
              | _ -> ())
            params;
          !bad || block_occ body
      | EMap { nest; body; _ } ->
          List.exists (fun (_, n) -> SS.mem target (fv_idx n)) nest
          || block_occ body
      | EIf { cond; tb; fb } ->
          SS.mem target (fv_atom cond) || block_occ tb || block_occ fb
      | e -> SS.mem target (fv_exp e)
    and block_occ ?(top = false) (b : block) =
      List.exists stm_occ b.stms
      || List.exists
           (fun (j, a) ->
             match a with
             | Var v when v = target ->
                 let forwards_out =
                   top
                   &&
                   match List.nth_opt ifstm.pat j with
                   | Some (q : pat_elem) when q.pt = TMem ->
                       out := q.pv :: !out;
                       true
                   | _ -> false
                 in
                 not forwards_out
             | _ -> false)
           (List.mapi (fun j a -> (j, a)) b.res)
    in
    (block_occ ~top:true armblk, !chain)
  in
  let esc, chain = arm_occ ~strict:false name in
  esc
  || List.exists (fun r -> fst (arm_occ ~strict:true r)) chain
  || not (List.for_all (identity_dead SS.empty) !out)

(* Arm-local death: in the pre program the block is allocated inside
   one arm of the conditional and nothing about it leaks out of that
   arm (in particular it is not part of the arm's existential result,
   and any loop-carried threading of it ends inside the arm); in the
   post program the allocation has left the arm. *)
let check_dies_in_arm pre post block if_binding arm =
  let arm_name = if arm then "true" else "false" in
  match find_stm pre if_binding with
  | None ->
      ( Failed (Fmt.str "no statement binds %s in the pre program" if_binding),
        "structural" )
  | Some s -> (
      match s.exp with
      | EIf { tb; fb; _ } -> (
          let armblk = if arm then tb else fb in
          if find_in_block armblk block = None then
            ( Failed
                (Fmt.str "%s is not allocated within the %s arm of %s" block
                   arm_name if_binding),
              "structural" )
          else if arm_escape_occurrence pre s armblk block then
            ( Failed
                (Fmt.str
                   "%s occurs in expression position inside the %s arm \
                    (contents escape the arm)"
                   block arm_name),
              "structural" )
          else
            match find_stm post if_binding with
            | Some { exp = EIf { tb = tb'; fb = fb'; _ }; _ } ->
                let armblk' = if arm then tb' else fb' in
                if find_in_block armblk' block <> None then
                  ( Failed
                      (Fmt.str "%s is still allocated inside the %s arm" block
                         arm_name),
                    "structural" )
                else if
                  find_in_block post.prog.body block = None
                  && annot_mentions post block
                then
                  ( Failed
                      (Fmt.str
                         "%s has no allocation in the post program but is \
                          still referenced"
                         block),
                    "structural" )
                else
                  ( Proved,
                    "arm-local death re-derived; allocation lifted above the \
                     if" )
            | _ ->
                ( Failed
                    (Fmt.str "if %s not found in the post program" if_binding),
                  "structural" ))
      | _ ->
          ( Failed (Fmt.str "%s does not bind an if" if_binding),
            "structural" ))

(* ---------------------------------------------------------------- *)
(* The checker driver                                                *)
(* ---------------------------------------------------------------- *)

let check ~pass ~pre ~post obls =
  (* The checks only read the two programs; re-deriving last uses
     writes them into a clone of [pre], made for the first last-use
     obligation (only short-circuiting emits them). *)
  let annotated =
    lazy
      (let pre = Ir.Clone.clone_prog pre in
       ignore (Lastuse.annotate pre);
       all_stms_block pre.body)
  in
  let pre = scan pre and post = scan post in
  (* A binding rebased more than once (later rounds of the pass) is
     structurally checked only against its final recorded state. *)
  let final_rebase = Hashtbl.create 16 in
  List.iter
    (fun o ->
      match o.o_claim with
      | Rebased { var; _ } -> Hashtbl.replace final_rebase var o.o_id
      | _ -> ())
    obls;
  let movers_acc = Hashtbl.create 8 in
  let checked =
    List.map
      (fun o ->
        let verdict, detail =
          match o.o_claim with
          | Nonoverlap { w; u } -> check_nonoverlap o.o_ctx w u
          | Size_ge { larger; smaller } ->
              check_size_ge o.o_ctx larger smaller
          | Bounds_in { lmad; lo; hi } -> check_bounds_in o.o_ctx lmad lo hi
          | Last_use { var; at_binding } ->
              check_last_use (Lazy.force annotated) var at_binding
          | Rebased { var; mem } ->
              let final = Hashtbl.find_opt final_rebase var = Some o.o_id in
              check_rebased post o.o_ctx ~final var mem
          | Dead_mem { names } -> check_dead_mem pre post names
          | Dead_after { names; binding } -> check_dead_after pre names binding
          | Live_disjoint { earlier; later; movers } ->
              check_live_disjoint ~pre movers_acc earlier later movers
          | Dies_each_iter { block; loop_binding } ->
              check_dies_each_iter pre post block loop_binding
          | Sole_occupant { block; ixfn } ->
              check_sole_occupant post block ixfn
          | Grouped { mem; wits; arr } -> check_grouped post mem wits arr
          | Footprint_fits { block; arr } ->
              check_footprint_fits post o.o_ctx block arr
          | Dominance { binding } -> check_dominance post binding
          | Unreferenced { name } -> check_unreferenced pre post name
          | Dies_in_arm { block; if_binding; arm } ->
              check_dies_in_arm pre post block if_binding arm
          | Packed_disjoint { arena = _; a; a_off; a_size = _; b; b_off;
                              b_size = _ } ->
              check_packed_disjoint post o.o_ctx ~a ~a_off ~b ~b_off
          | Fits_in_arena { arena; member; off; size = _; extent = _ } ->
              check_fits_in_arena post o.o_ctx ~arena ~member ~off
          | Hole_disjoint { arena; a; a_off; a_size = _; b; b_off;
                            b_size = _; iter } ->
              check_hole_disjoint pre post o.o_ctx ~arena ~a ~a_off ~b ~b_off
                ~iter
        in
        { obl = o; verdict; detail })
      obls
  in
  let proved, concretized, failed =
    List.fold_left
      (fun (p, c, f) ch ->
        match ch.verdict with
        | Proved -> (p + 1, c, f)
        | Concretized _ -> (p, c + 1, f)
        | Failed _ -> (p, c, f + 1))
      (0, 0, 0) checked
  in
  { pass; emitted = List.length checked; proved; concretized; failed; checked }

(* ---------------------------------------------------------------- *)
(* JSON export                                                       *)
(* ---------------------------------------------------------------- *)

let json_of_report r =
  let obligation c =
    let verdict, extra =
      match c.verdict with
      | Proved -> ("proved", [])
      | Concretized [] -> ("concretized", [])
      | Concretized sizes ->
          ( "concretized",
            [ ("validated_at", Json.Arr (List.map Json.int sizes)) ] )
      | Failed w -> ("failed", [ ("witness", Json.Str w) ])
    in
    Json.Obj
      ([
         ("id", Json.int c.obl.o_id);
         ("kind", Json.Str (claim_kind c.obl.o_claim));
         ("rewrite", Json.Str (Fmt.str "%a" pp_rewrite c.obl.o_rewrite));
         ("claim", Json.Str (Fmt.str "%a" pp_claim c.obl.o_claim));
         ("verdict", Json.Str verdict);
       ]
      @ extra
      @ [ ("detail", Json.Str c.detail) ])
  in
  Json.Obj
    [
      ("pass", Json.Str r.pass);
      ("emitted", Json.int r.emitted);
      ("proved", Json.int r.proved);
      ("concretized", Json.int r.concretized);
      ("failed", Json.int r.failed);
      ("obligations", Json.Arr (List.map obligation r.checked));
    ]
