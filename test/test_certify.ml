(* Tests for the translation-validation layer (Certify).

   Three angles, mirroring the memlint/memtrace suites:

   - the honest pipeline certifies: every benchmark compiles with
     ~certify:true to zero failed obligations, and the passes actually
     emit obligations (an empty certificate would vacuously pass);

   - mutations are rejected: a bogus rewrite injected behind the
     checker's back - coalescing two overlapping-live blocks, a forged
     size-domination proof, a forged non-overlap claim - must be
     refuted by the independent checker.  The coalesce mutation is
     deliberately chosen so Memlint only *warns* (the footprints are
     not structurally equal, so its total-clobber rule cannot error):
     memcert is the layer that catches it;

   - a qcheck property: randomly generated programs (chains of
     map stages, stacks of sibling loops with hoistable temporaries)
     certify end to end with zero failed obligations. *)

open Ir
open Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Build
module C = Core.Certify
module ML = Core.Memlint
module Lmad = Lmads.Lmad
module Refset = Lmads.Refset

let c = P.const
let n = P.var "n"
let ctx_n2 = Pr.add_range Pr.empty "n" ~lo:(c 2) ()

let fill b name cnt seed =
  B.mapnest b name [ (B.fresh b "i", cnt) ] (fun bb ->
      [ B.fadd bb (Float seed) (Float 0.0) ])

(* ---------------------------------------------------------------- *)
(* The honest pipeline certifies                                     *)
(* ---------------------------------------------------------------- *)

let bench_progs =
  [
    ("nw", Benchsuite.Nw.prog);
    ("lud", Benchsuite.Lud.prog);
    ("hotspot", Benchsuite.Hotspot.prog);
    ("lbm", Benchsuite.Lbm.prog);
    ("optionpricing", Benchsuite.Option_pricing.prog);
    ("locvolcalib", Benchsuite.Locvolcalib.prog);
    ("nn", Benchsuite.Nn.prog);
  ]

let test_benchmarks_certify () =
  List.iter
    (fun (name, prog) ->
      let cpl = Core.Pipeline.compile ~certify:true prog in
      let certs = cpl.Core.Pipeline.certs in
      Alcotest.(check (list string))
        (name ^ ": one certificate per rewriting pass, in pass order")
        [
          "memintro";
          "hoist";
          "shortcircuit";
          "cleanup";
          "reuse";
          "cleanup-reuse";
          "pack";
          "cleanup-pack";
        ]
        (List.map fst certs);
      (match Core.Pipeline.first_cert_failure certs with
      | None -> ()
      | Some (pass, ch) ->
          Alcotest.failf "%s: refuted obligation in %s: %a" name pass
            C.pp_checked ch);
      let emitted =
        List.fold_left (fun a (_, r) -> a + r.C.emitted) 0 certs
      in
      Alcotest.(check bool)
        (name ^ ": obligations were emitted")
        true (emitted > 0))
    bench_progs

(* The prover's work on LUD, the costliest compile of the corpus: false
   goals are refuted by a concrete witness instead of exhausting their
   elimination trees, so a certified compile decides at most 10,000
   goals afresh (53,454 memo misses, each a search, before refutation).
   Measured from a cold memo, so the bound holds in any test order.
   Proof-local binders are named after their variable, so a repeated
   compile asks only goals the first one decided. *)
let test_lud_prover_work () =
  let work () =
    let before = Pr.stats () in
    ignore
      (Core.Pipeline.compile ~certify:true ~fail_safe:true Benchsuite.Lud.prog);
    let after = Pr.stats () in
    ( after.Pr.nonneg_misses - before.Pr.nonneg_misses,
      after.Pr.refuted - before.Pr.refuted )
  in
  Pr.with_cold_memo (fun () ->
      let misses, refuted = work () in
      if misses > 10_000 then
        Alcotest.failf "lud: %d prover memo misses, bound 10,000" misses;
      Alcotest.(check bool) "lud: some goals refuted by a witness" true
        (refuted >= 1);
      Alcotest.(check int) "lud: a warm repeat decides nothing afresh" 0
        (fst (work ())))

(* Loop names barely move the prover's work: it tries a goal's
   variables in the order of their bounds, innermost first, and by name
   only between equal ranks.  LUD's source names each loop index after
   its phase (ld_i, dool_i, fs_i, ...); elaborated with plain row,
   column and inner names instead (Doolittle's [let t = r + 1 + t] then
   shadows its loop index), it compiles to the same circuits and
   certificate counts with the same prover work within 1% (it took 46%
   more searches when the prover went by name). *)
let test_lud_names_neutral () =
  let plain =
    [
      ("ld_i", "r"); ("ldc_i", "c"); ("dool_i", "r"); ("doolj_i", "c");
      ("doolt_i", "t"); ("fs_i", "r"); ("fsc_i", "c"); ("fst_i", "t");
      ("bs_i", "r"); ("bsr_i", "c"); ("bst_i", "t"); ("upd_i", "r");
      ("updc_i", "c"); ("updt_i", "t");
    ]
  in
  (* Rename whole identifiers only: [t] in [dt] or [fst] stays. *)
  let rename src =
    let ident = function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
      | _ -> false
    in
    let out = Buffer.create (String.length src) and word = Buffer.create 8 in
    let flush () =
      let w = Buffer.contents word in
      Buffer.add_string out (Option.value (List.assoc_opt w plain) ~default:w);
      Buffer.clear word
    in
    String.iter
      (fun ch ->
        if ident ch then Buffer.add_char word ch
        else (
          flush ();
          Buffer.add_char out ch))
      src;
    flush ();
    Buffer.contents out
  in
  let renamed = rename Benchsuite.Lud.source in
  Alcotest.(check bool) "the source was renamed" true
    (renamed <> Benchsuite.Lud.source);
  let compile prog =
    Pr.with_cold_memo (fun () ->
        let before = (Pr.stats ()).Pr.nonneg_misses in
        let cpl = Core.Pipeline.compile ~certify:true ~fail_safe:true prog in
        let counts (pass, r) =
          (pass, [ r.C.emitted; r.C.proved; r.C.concretized; r.C.failed ])
        in
        ( cpl.Core.Pipeline.stats.Core.Shortcircuit.succeeded,
          List.map counts cpl.Core.Pipeline.certs,
          (Pr.stats ()).Pr.nonneg_misses - before ))
  in
  let circuits, certs, misses = compile Benchsuite.Lud.prog in
  let circuits', certs', misses' =
    compile
      (Frontend.Elab.compile_string ~ctx:Benchsuite.Lud.ctx0 renamed)
  in
  Alcotest.(check int) "same circuits" circuits circuits';
  Alcotest.(check (list (pair string (list int))))
    "same certificate counts" certs certs';
  if 100 * abs (misses' - misses) > misses then
    Alcotest.failf "lud: %d nonneg misses with plain names, %d with phase names"
      misses' misses

(* A compile is a pure function of its program: the passes draw names
   from a supply seeded by their own input, proof-local binders are
   named after their variable, and no clock bounds a proof.  So neither
   linting, nor certifying, nor what the process compiled before
   changes a printed variant or a certificate. *)
let test_compile_pure () =
  let settings =
    [ (false, false); (true, false); (false, true); (true, true) ]
  in
  List.iter
    (fun (name, prog) ->
      let variants = ref None and certs = ref None in
      let same what first now =
        match !first with
        | None -> first := Some now
        | Some f ->
            if f <> now then
              Alcotest.failf "%s: %s differ between compiles" name what
      in
      for _ = 1 to 2 do
        List.iter
          (fun (lint, certify) ->
            let c =
              Core.Pipeline.compile ~lint ~certify ~fail_safe:true prog
            in
            same "printed variants" variants
              (List.map Pretty.prog_to_string
                 Core.Pipeline.[ c.unopt; c.opt; c.reuse; c.pack ]);
            if certify then
              same "certificates" certs
                (List.map
                   (fun (_, r) -> Core.Json.to_string (C.json_of_report r))
                   c.Core.Pipeline.certs))
          settings
      done)
    bench_progs

(* Every binder of a program: parameters, pattern elements, loop
   parameters and indices, and nest indices. *)
let binders (p : prog) =
  let pvs = List.map (fun pe -> pe.pv) in
  pvs p.params
  @ List.concat_map
      (fun (s : stm) ->
        pvs s.pat
        @
        match s.exp with
        | EMap { nest; _ } -> List.map fst nest
        | ELoop { params; var; _ } -> var :: pvs (List.map fst params)
        | _ -> [])
      (all_stms_block p.body)

(* Names are unique program-wide (section II-C): the builders, the
   frontend and every pass draw each name they add once. *)
let test_names_bound_once () =
  List.iter
    (fun (name, prog) ->
      let c = Core.Pipeline.compile prog in
      List.iter
        (fun (variant, p) ->
          let seen = Hashtbl.create 256 in
          List.iter
            (fun v ->
              if Hashtbl.mem seen v then
                Alcotest.failf "%s %s: %s is bound twice" name variant v;
              Hashtbl.add seen v ())
            (binders p))
        Core.Pipeline.
          [
            ("source", prog);
            ("unopt", c.unopt);
            ("opt", c.opt);
            ("reuse", c.reuse);
            ("pack", c.pack);
          ])
    bench_progs

(* Without ~certify:true no certificates are collected - the recording
   must be strictly opt-in (zero cost on the normal path). *)
let test_certify_opt_in () =
  let cpl = Core.Pipeline.compile Benchsuite.Hotspot.prog in
  Alcotest.(check int) "no certificates by default" 0
    (List.length cpl.Core.Pipeline.certs)

(* ---------------------------------------------------------------- *)
(* Mutation: overlapping-live coalesce that memlint only warns about  *)
(* ---------------------------------------------------------------- *)

(* a = fill n; b = fill (n-1); c = a + b.  Both fills are live until
   the sum; their footprints differ in length, so after forging b into
   a's block Memlint cannot prove a total clobber (LMADs not equal)
   and only warns.  The forged Live_disjoint obligation must still be
   refuted by the certificate checker. *)
let overlap2_prog () =
  let m = P.sub n P.one in
  B.prog "certoverlap" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ m ] ]
    (fun b ->
      let a = fill b "as" n 1.0 in
      let bs = fill b "bs" m 2.0 in
      let iv = B.fresh b "i" in
      let cs =
        B.mapnest b "cs" [ (iv, m) ] (fun bb ->
            [
              B.fadd bb
                (B.index bb a [ P.var iv ])
                (B.index bb bs [ P.var iv ]);
            ])
      in
      [ Var cs ])

(* The first two annotated mapnest bindings at the top level, in
   binding order: the two fills. *)
let two_fills (p : prog) =
  let fills =
    List.filter_map
      (fun s ->
        match s.exp with
        | EMap _ ->
            List.find_opt
              (fun pe -> is_array_typ pe.pt && pe.pmem <> None)
              s.pat
        | _ -> None)
      p.body.stms
  in
  match fills with
  | pe_a :: pe_b :: _ -> (pe_a, pe_b)
  | _ -> Alcotest.fail "expected two annotated fills"

let test_mutation_overlapping_coalesce () =
  let p = Core.Pipeline.to_memory_ir (overlap2_prog ()) in
  let pre = Ir.Clone.clone_prog p in
  let pe_a, pe_b = two_fills p in
  let ma = Option.get pe_a.pmem and mb = Option.get pe_b.pmem in
  (* the bogus rewrite: rebind b into a's block, keeping b's own
     (shorter) index function - exactly what a buggy coalescer that
     skipped the liveness check would produce *)
  pe_b.pmem <- Some { block = ma.block; ixfn = mb.ixfn };
  let lint = ML.check p in
  Alcotest.(check bool) "memlint only warns (no total clobber)" true
    (ML.ok lint);
  Alcotest.(check bool) "memlint did notice the share" true
    (ML.warnings lint <> []);
  let r = C.recorder ~pass:"reuse" in
  C.emit r
    (C.Coalesce { earlier = ma.block; later = mb.block })
    ~ctx:ctx_n2
    (C.Live_disjoint
       { earlier = ma.block; later = mb.block; movers = [ pe_b.pv ] });
  let report =
    C.check ~pass:"reuse" ~pre ~post:p (C.obligations r)
  in
  Alcotest.(check bool) "memcert refutes the coalesce" true
    (not (C.ok report));
  match C.failures report with
  | { verdict = C.Failed _; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected a Failed verdict"

(* A true claim under the same rewrite kind is proved - the checker
   rejects the mutation above because it is false, not because of the
   claim's shape. *)
let test_honest_claim_accepted () =
  let p = Core.Pipeline.to_memory_ir (overlap2_prog ()) in
  let pre = Ir.Clone.clone_prog p in
  let pe_a, pe_b = two_fills p in
  let ma = Option.get pe_a.pmem and mb = Option.get pe_b.pmem in
  let r = C.recorder ~pass:"reuse" in
  C.emit r
    (C.Coalesce { earlier = ma.block; later = mb.block })
    ~ctx:ctx_n2
    (C.Size_ge { larger = n; smaller = P.sub n P.one });
  let report = C.check ~pass:"reuse" ~pre ~post:p (C.obligations r) in
  Alcotest.(check bool) "honest size claim proved" true (C.ok report)

(* ---------------------------------------------------------------- *)
(* Mutation: forged size proof (rotation of a growing buffer)         *)
(* ---------------------------------------------------------------- *)

let test_mutation_forged_size_proof () =
  let p = Core.Pipeline.to_memory_ir (overlap2_prog ()) in
  let pre = Ir.Clone.clone_prog p in
  let r = C.recorder ~pass:"reuse" in
  (* n >= 2n is false for every admissible n: the prover refuses and
     the concretizer must find a numeric witness, not wave it through *)
  C.emit r
    (C.Rotation
       {
         loop_binding = "acc";
         init_block = "mem_fake";
         init_arr = "a0";
         spare_block = "mem_spare";
       })
    ~ctx:ctx_n2
    (C.Size_ge { larger = n; smaller = P.mul (c 2) n });
  let report = C.check ~pass:"reuse" ~pre ~post:p (C.obligations r) in
  Alcotest.(check bool) "forged size proof refuted" true
    (not (C.ok report));
  match C.failures report with
  | [ { verdict = C.Failed msg; _ } ] ->
      (* refuted with a concrete witness, not just "unproven" *)
      Alcotest.(check bool) "refutation carries detail" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected exactly one Failed obligation"

(* ---------------------------------------------------------------- *)
(* Mutation: forged non-overlap claim (short-circuit side)            *)
(* ---------------------------------------------------------------- *)

let test_mutation_forged_nonoverlap () =
  let p = Core.Pipeline.to_memory_ir (overlap2_prog ()) in
  let pre = Ir.Clone.clone_prog p in
  let l = Lmad.make P.zero [ Lmad.dim n P.one ] in
  let r = C.recorder ~pass:"shortcircuit" in
  (* a write set claimed disjoint from itself: refutable at any size *)
  C.emit r
    (C.Copy_elide
       { candidate = "src"; dst_block = "mem_dst"; at_binding = "y" })
    ~ctx:ctx_n2
    (C.Nonoverlap { w = Refset.of_lmad l; u = Refset.of_lmad l });
  let report =
    C.check ~pass:"shortcircuit" ~pre ~post:p (C.obligations r)
  in
  Alcotest.(check bool) "forged non-overlap refuted" true
    (not (C.ok report))

(* ---------------------------------------------------------------- *)
(* Mutation: forged existential grouping (memintro side)              *)
(* ---------------------------------------------------------------- *)

(* One top-level conditional producing an array: memory introduction
   wraps its result in the [mem, witness..., array] grouping, giving
   the checker a real grouping to compare forgeries against. *)
let cond_prog () =
  B.prog "certcond" ~ctx:ctx_n2
    ~params:[ pat_elem "n" i64; pat_elem "c" boolt ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let bs =
        B.if_ b "bs" (Var "c")
          (fun tb -> [ Var (fill tb "bs_t" n 1.0) ])
          (fun fb -> [ Var (fill fb "bs_f" n 2.0) ])
      in
      [ Var (List.hd bs) ])

(* The first conditional statement, searching compound bodies. *)
let find_if (p : prog) =
  let rec go stms =
    List.find_map
      (fun s ->
        match s.exp with
        | EIf _ -> Some s
        | EMap { body; _ } | ELoop { body; _ } -> go body.stms
        | _ -> None)
      stms
  in
  match go p.body.stms with
  | Some s -> s
  | None -> Alcotest.fail "expected a conditional"

(* The grouping run of an existential conditional pattern:
   (mem binder, witness binders, array binder). *)
let grouping_of (s : stm) =
  let mem =
    match List.find_opt (fun pe -> pe.pt = TMem) s.pat with
    | Some pe -> pe.pv
    | None -> Alcotest.fail "expected a TMem binder"
  in
  let wits =
    List.filter_map
      (fun pe -> if pe.pt = i64 then Some pe.pv else None)
      s.pat
  in
  let a =
    match
      List.find_opt (fun pe -> is_array_typ pe.pt && pe.pmem <> None) s.pat
    with
    | Some pe -> pe
    | None -> Alcotest.fail "expected an annotated array binder"
  in
  (mem, wits, a)

let test_mutation_forged_grouping () =
  let p = Core.Pipeline.to_memory_ir (cond_prog ()) in
  let pre = Ir.Clone.clone_prog p in
  let ifs = find_if p in
  let mem, wits, pe_arr = grouping_of ifs in
  let r = C.recorder ~pass:"memintro" in
  (* the honest grouping proves... *)
  C.emit r
    (C.Exist_intro { binding = pe_arr.pv })
    ~ctx:ctx_n2
    (C.Grouped { mem; wits; arr = pe_arr.pv });
  (* ...and the forged one - the array claimed grouped with a block
     that is not the one binding it (here: the block the array is
     annotated into inside an arm, not the conditional's existential
     binder) - must be refuted structurally. *)
  let arm_mem =
    match ifs.exp with
    | EIf { tb; _ } -> (
        match
          List.find_map
            (fun s ->
              List.find_map
                (fun pe -> Option.map (fun m -> m.block) pe.pmem)
                s.pat)
            tb.stms
        with
        | Some m -> m
        | None -> Alcotest.fail "expected an annotated arm binding")
    | _ -> assert false
  in
  C.emit r
    (C.Exist_intro { binding = pe_arr.pv })
    ~ctx:ctx_n2
    (C.Grouped { mem = arm_mem; wits; arr = pe_arr.pv });
  let report = C.check ~pass:"memintro" ~pre ~post:p (C.obligations r) in
  Alcotest.(check int) "honest grouping proved, forgery refuted" 1
    report.C.failed;
  match C.failures report with
  | [ { verdict = C.Failed msg; _ } ] ->
      Alcotest.(check bool) "refutation names the mismatch" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected exactly one Failed obligation"

(* ---------------------------------------------------------------- *)
(* Mutation: forged if-arm hoist (reuse strategy 4)                   *)
(* ---------------------------------------------------------------- *)

(* In [cond_prog] each arm's fill IS the arm's result: its contents
   escape the conditional, so a Dies_in_arm claim for its block is
   false and must be refuted.  A branch-wise size forgery under the
   same rewrite must be refuted with a concrete witness. *)
let test_mutation_forged_if_hoist () =
  let p = Core.Pipeline.to_memory_ir (cond_prog ()) in
  let pre = Ir.Clone.clone_prog p in
  let ifs = find_if p in
  let if_binding = (List.hd ifs.pat).pv in
  let arm_mem =
    match ifs.exp with
    | EIf { tb; _ } -> (
        match
          List.find_map
            (fun s ->
              List.find_map
                (fun pe -> Option.map (fun m -> m.block) pe.pmem)
                s.pat)
            tb.stms
        with
        | Some m -> m
        | None -> Alcotest.fail "expected an annotated arm binding")
    | _ -> assert false
  in
  let r = C.recorder ~pass:"reuse" in
  C.emit r
    (C.If_hoist { block = arm_mem; if_binding })
    ~ctx:ctx_n2
    (C.Dies_in_arm { block = arm_mem; if_binding; arm = true });
  (* n >= 2n is false for every admissible n: the branch-wise size
     obligation must be refuted with a numeric witness *)
  C.emit r
    (C.If_hoist { block = arm_mem; if_binding })
    ~ctx:ctx_n2
    (C.Size_ge { larger = n; smaller = P.mul (c 2) n });
  let report = C.check ~pass:"reuse" ~pre ~post:p (C.obligations r) in
  Alcotest.(check int) "both forgeries refuted" 2 report.C.failed;
  List.iter
    (function
      | { C.verdict = C.Failed msg; _ } ->
          Alcotest.(check bool) "refutation carries detail" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "expected Failed verdicts")
    (C.failures report)

(* ---------------------------------------------------------------- *)
(* Last uses are re-derived, whatever pass claims them                *)
(* ---------------------------------------------------------------- *)

(* The checker annotates its own clone of the pre program whenever a
   certificate holds a last-use claim: the claim is judged against
   last uses re-derived from scratch, not against the ones the pre
   program carries (cleared here), whichever pass emitted it.  And
   [check] leaves both programs as it found them. *)
let test_last_use_rederived () =
  let reads = ref [] in
  let prog =
    B.prog "lu_cert" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ] ~ret:[ f64 ]
      (fun b ->
        let xs = fill b "xs" n 1.0 in
        let x = B.index b xs [ P.zero ] in
        let y = B.index b xs [ P.one ] in
        reads := [ xs ] @ List.filter_map atom_var [ x; y ];
        [ B.fadd b x y ])
  in
  let xs, first, last =
    match !reads with
    | [ xs; x; y ] -> (xs, x, y)
    | _ -> Alcotest.fail "expected an array and two reads"
  in
  let post = Core.Pipeline.to_memory_ir prog in
  let pre = Ir.Clone.clone_prog post in
  List.iter (fun s -> s.last_uses <- []) (all_stms_block pre.body);
  let printed () = (Pretty.prog_to_string pre, Pretty.prog_to_string post) in
  let before = printed () in
  let r = C.recorder ~pass:"cleanup" in
  let claim at_binding =
    C.emit r
      (C.Copy_elide { candidate = xs; dst_block = "mem"; at_binding })
      (C.Last_use { var = xs; at_binding })
  in
  claim last;
  claim first;
  let report = C.check ~pass:"cleanup" ~pre ~post (C.obligations r) in
  (match report.C.checked with
  | [ { verdict = C.Proved; _ }; { verdict = C.Failed _; _ } ] -> ()
  | _ -> Alcotest.fail "expected the true claim proved, the false refuted");
  Alcotest.(check (pair string string))
    "pre and post printed unchanged, last uses included" before (printed ())

(* ---------------------------------------------------------------- *)
(* The certificate gate: a proved -> concretized flip is a regression *)
(* ---------------------------------------------------------------- *)

module BJ = Benchsuite.Benchjson

let cert_doc ~verdict0 ~proved ~concretized =
  Printf.sprintf
    {|{"benchmarks":[{"name":"b","passes":[{"pass":"memintro",
       "emitted":2,"proved":%d,"concretized":%d,"failed":0,
       "obligations":[
         {"id":0,"kind":"rewrite","rewrite":"mem_intro of m0",
          "claim":"grouped","verdict":"%s","detail":""},
         {"id":1,"kind":"rewrite","rewrite":"mem_intro of m1",
          "claim":"grouped","verdict":"proved","detail":""}]}]}]}|}
    proved concretized verdict0

let parse_doc s =
  match BJ.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad test JSON: %s" e

let test_cert_gate_flip () =
  let baseline =
    parse_doc (cert_doc ~verdict0:"proved" ~proved:2 ~concretized:0)
  in
  let same =
    parse_doc (cert_doc ~verdict0:"proved" ~proved:2 ~concretized:0)
  in
  let flipped =
    parse_doc (cert_doc ~verdict0:"concretized" ~proved:1 ~concretized:1)
  in
  let g0 = BJ.cert_gate ~baseline ~current:same () in
  Alcotest.(check bool) "identity passes" true (BJ.ok g0);
  let g1 = BJ.cert_gate ~baseline ~current:flipped () in
  Alcotest.(check bool) "flip fails the gate" true (not (BJ.ok g1));
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "flip is reported as a weakening" true
    (List.exists
       (fun m ->
         contains_sub m "weakened" || contains_sub m "proved count")
       g1.BJ.regressions)

(* ---------------------------------------------------------------- *)
(* qcheck: generated programs certify end to end                      *)
(* ---------------------------------------------------------------- *)

(* A chain of [k] map stages over one fill: every adjacent pair is a
   same-scope coalescing candidate. *)
let gen_chain k =
  B.prog "qcchain" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let first = fill b "x0" n 1.0 in
      let rec go prev i =
        if i > k then prev
        else
          let iv = B.fresh b "i" in
          let nx =
            B.mapnest b (Printf.sprintf "x%d" i) [ (iv, n) ] (fun bb ->
                [
                  B.fadd bb
                    (B.index bb prev [ P.var iv ])
                    (Float (float_of_int i));
                ])
          in
          go nx (i + 1)
      in
      [ Var (go first 1) ])

(* [s] sibling loops, each with a per-iteration temporary: hoisting
   fires in every loop and the hoisted blocks coalesce pairwise. *)
let gen_siblings s bound =
  B.prog "qcsib" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let init = fill b "acc0" n 0.0 in
      let mk b0 seed init =
        B.loop1 b0 "acc" (arr F64 [ n ]) (Var init) ~bound:(c bound)
          (fun bb ~param ~i:_ ->
            let tmp = fill bb "tmp" n seed in
            let iv = B.fresh bb "i" in
            let acc' =
              B.mapnest bb "acc'" [ (iv, n) ] (fun b3 ->
                  [
                    B.fadd b3
                      (B.index b3 param [ P.var iv ])
                      (B.index b3 tmp [ P.var iv ]);
                  ])
            in
            Var acc')
      in
      let rec go prev i =
        if i > s then prev else go (mk b (float_of_int i) prev) (i + 1)
      in
      [ Var (go init 1) ])

(* A loop whose body branches: depending on [mode], the true arm, the
   false arm, or both arms allocate a local temporary that dies inside
   the arm - exercising the single-arm and pair-lift shapes of the
   if-arm hoist (reuse strategy 4) plus the dead-chain removal that
   certifies the threading it leaves behind. *)
let gen_cond mode bound =
  B.prog "qccond" ~ctx:ctx_n2
    ~params:[ pat_elem "n" i64; pat_elem "c" boolt ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let init = fill b "a0" n 0.0 in
      let arm_with_tmp seed bb param =
        let tmp = fill bb (Printf.sprintf "tmp%.0f" seed) n seed in
        let iv = B.fresh bb "i" in
        [
          Var
            (B.mapnest bb "r" [ (iv, n) ] (fun b3 ->
                 [
                   B.fadd b3
                     (B.index b3 param [ P.var iv ])
                     (B.index b3 tmp [ P.var iv ]);
                 ]));
        ]
      in
      let arm_plain seed bb param =
        let iv = B.fresh bb "i" in
        [
          Var
            (B.mapnest bb "r" [ (iv, n) ] (fun b3 ->
                 [ B.fadd b3 (B.index b3 param [ P.var iv ]) (Float seed) ]));
        ]
      in
      let r =
        B.loop1 b "acc" (arr F64 [ n ]) (Var init) ~bound:(c bound)
          (fun bb ~param ~i:_ ->
            let t_arm, f_arm =
              match mode with
              | 0 -> (arm_with_tmp 1.0, arm_with_tmp 2.0)
              | 1 -> (arm_with_tmp 3.0, arm_plain 4.0)
              | _ -> (arm_plain 5.0, arm_with_tmp 6.0)
            in
            let st =
              B.if_ bb "st" (Var "c")
                (fun tb -> t_arm tb param)
                (fun fb -> f_arm fb param)
            in
            Var (List.hd st))
      in
      [ Var r ])

let certified name prog =
  let cpl = Core.Pipeline.compile ~certify:true prog in
  match Core.Pipeline.first_cert_failure cpl.Core.Pipeline.certs with
  | None -> true
  | Some (pass, ch) ->
      QCheck.Test.fail_reportf "%s: refuted obligation in %s: %a" name pass
        C.pp_checked ch

let prop_generated_programs_certify =
  QCheck.Test.make ~name:"generated programs certify (zero failed)" ~count:(Qcount.count 8)
    (QCheck.make
       ~print:(fun (k, s, bound) ->
         Printf.sprintf "chain=%d siblings=%d bound=%d" k s bound)
       QCheck.Gen.(triple (int_range 1 4) (int_range 1 3) (int_range 2 5)))
    (fun (k, s, bound) ->
      certified "chain" (gen_chain k)
      && certified "siblings" (gen_siblings s bound))

let prop_conditional_programs_certify =
  QCheck.Test.make
    ~name:"generated conditional programs certify (zero failed)" ~count:(Qcount.count 9)
    (QCheck.make
       ~print:(fun (mode, bound) ->
         Printf.sprintf "mode=%d bound=%d" mode bound)
       QCheck.Gen.(pair (int_range 0 2) (int_range 2 5)))
    (fun (mode, bound) -> certified "cond" (gen_cond mode bound))

let tests =
  [
    Alcotest.test_case "all benchmarks certify (zero failed)" `Quick
      test_benchmarks_certify;
    Alcotest.test_case "lud: prover work bounded by refutation" `Quick
      test_lud_prover_work;
    Alcotest.test_case "lud: loop names do not move the prover's work" `Quick
      test_lud_names_neutral;
    Alcotest.test_case "certification is opt-in" `Quick test_certify_opt_in;
    Alcotest.test_case "compiles are pure functions of the program" `Quick
      test_compile_pure;
    Alcotest.test_case "every name is bound once" `Quick
      test_names_bound_once;
    Alcotest.test_case "mutation: overlapping-live coalesce refuted" `Quick
      test_mutation_overlapping_coalesce;
    Alcotest.test_case "honest size claim proved" `Quick
      test_honest_claim_accepted;
    Alcotest.test_case "mutation: forged size proof refuted" `Quick
      test_mutation_forged_size_proof;
    Alcotest.test_case "mutation: forged non-overlap refuted" `Quick
      test_mutation_forged_nonoverlap;
    Alcotest.test_case "mutation: forged existential grouping refuted" `Quick
      test_mutation_forged_grouping;
    Alcotest.test_case "mutation: forged if-arm hoist refuted" `Quick
      test_mutation_forged_if_hoist;
    Alcotest.test_case "last uses re-derived whatever the pass" `Quick
      test_last_use_rederived;
    Alcotest.test_case "cert gate: proved -> concretized flip fails" `Quick
      test_cert_gate_flip;
    QCheck_alcotest.to_alcotest prop_generated_programs_certify;
    QCheck_alcotest.to_alcotest prop_conditional_programs_certify;
  ]
