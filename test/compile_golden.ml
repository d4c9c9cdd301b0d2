(* Golden record of the compiler's output: one linted, certified,
   fail-safe compile of every paper program.  Each compile prints the
   MD5 of every printed variant, every field of the three pass
   statistics records and the dead-allocation counts, every lint
   stage's counters and violations, every certificate pass's
   obligation counts with the MD5 of its JSON, the recovery list, and
   the prover work the compile needs on its own (under
   [Prover.with_cold_memo]): goals decided afresh, of them refuted by a
   witness, contexts saturated, and non-overlap questions decided
   afresh.  Last, the expressions {!Ir.Ast}'s free-variable walk
   visits in a certified fail-safe compile and in a linted one (what
   the benchmark's compile and lint workloads run): an analysis that
   re-walks nested blocks shows here as a count that grows with
   nesting.  The counts repeat exactly, as no clock bounds a proof.
   Dune diffs the output against
   [compile_golden.expected]; a refactoring of the passes that is meant
   to keep their output must leave that file byte-identical, and a
   prover change that moves the search must leave every other line as
   it was. *)

module B = Benchsuite
module Pl = Core.Pipeline
module Pr = Symalg.Prover

let md5 s = Digest.to_hex (Digest.string s)

(* Full record patterns (no [_] for a field of interest) make a new
   field a compile error here until it is printed too. *)
let print_sc
    { Core.Shortcircuit.candidates; succeeded; overlap_checks; rebased_vars }
    =
  Printf.printf
    "  shortcircuit candidates %d succeeded %d overlap_checks %d \
     rebased_vars %d\n"
    candidates succeeded overlap_checks rebased_vars

let print_reuse
    {
      Core.Reuse.candidates;
      coalesced;
      size_proofs;
      chain_links;
      rotated;
      hoisted;
    } =
  Printf.printf
    "  reuse candidates %d coalesced %d size_proofs %d chain_links %d \
     rotated %d hoisted %d\n"
    candidates coalesced size_proofs chain_links rotated hoisted

let print_pack
    { Core.Pack.arenas; packed; unpacked; offset_proofs; holes; promoted } =
  Printf.printf
    "  pack arenas %d packed %d unpacked %d offset_proofs %d holes %d \
     promoted %d\n"
    arenas packed unpacked offset_proofs holes promoted

let print_lint
    ( name,
      {
        Core.Memlint.program = _;
        stage;
        stms;
        annotations;
        bounds_proved;
        bounds_undecided;
        races_proved;
        races_undecided;
        reuse_proved;
        reuse_undecided;
        reuse_holes;
        violations;
      } ) =
  Printf.printf
    "  lint %s (%s) stms %d annotations %d bounds %d/%d races %d/%d reuse \
     %d/%d holes %d violations %d\n"
    name stage stms annotations bounds_proved bounds_undecided races_proved
    races_undecided reuse_proved reuse_undecided reuse_holes
    (List.length violations);
  List.iter
    (fun v -> print_endline ("    " ^ Fmt.str "%a" Core.Memlint.pp_violation v))
    violations

let print_cert
    ( name,
      ({ Core.Certify.pass; emitted; proved; concretized; failed; checked = _ }
       as r) ) =
  Printf.printf
    "  cert %s (%s) emitted %d proved %d concretized %d failed %d %s\n" name
    pass emitted proved concretized failed
    (md5 (Core.Json.to_string (Core.Certify.json_of_report r)))

let print_recovery { Pl.r_fault; r_pass; r_fallback } =
  Printf.printf "  recovery %s -> %s: %s\n" r_pass r_fallback
    (Core.Fault.to_string r_fault)

let () =
  List.iter
    (fun { B.Runner.name; prog; _ } ->
      let before = Pr.stats () in
      let ({
             Pl.source = _;
             unopt = _;
             opt = _;
             reuse = _;
             pack = _;
             stats;
             reuse_stats;
             pack_stats;
             dead_allocs;
             reuse_dead_allocs;
             pack_dead_allocs;
             time_base = _;
             time_sc = _;
             time_reuse = _;
             time_pack = _;
             lint;
             certs;
             recovery;
             prover_exhausted;
           } as c) =
        Pr.with_cold_memo (fun () ->
            Pl.compile ~lint:true ~certify:true ~fail_safe:true prog)
      in
      let after = Pr.stats () in
      print_endline name;
      List.iter
        (fun (v, p) ->
          Printf.printf "  %s %s\n" v (md5 (Ir.Pretty.prog_to_string p)))
        (Pl.variants c);
      print_sc stats;
      print_reuse reuse_stats;
      print_pack pack_stats;
      Printf.printf
        "  dead_allocs %d reuse_dead_allocs %d pack_dead_allocs %d\n"
        dead_allocs reuse_dead_allocs pack_dead_allocs;
      List.iter print_lint lint;
      List.iter print_cert certs;
      List.iter print_recovery recovery;
      Printf.printf "  prover_exhausted %d\n" prover_exhausted;
      Printf.printf
        "  prover nonneg_misses %d refuted %d sat_misses %d verdict_misses %d\n"
        (after.nonneg_misses - before.nonneg_misses)
        (after.refuted - before.refuted)
        (after.sat_misses - before.sat_misses)
        (after.verdict_misses - before.verdict_misses);
      let visits f =
        Ir.Ast.reset_fv_visits ();
        ignore (f ());
        Ir.Ast.fv_visits ()
      in
      Printf.printf "  fv_visits certified %d linted %d\n"
        (visits (fun () -> Pl.compile ~certify:true ~fail_safe:true prog))
        (visits (fun () -> Pl.compile ~lint:true prog)))
    B.Suite.all
