(* The compiler's own experiments: an ablation of the short-circuiting
   analysis features, and a set of Bechamel micro-benchmarks of the
   compiler itself (the non-overlap test, the short-circuiting pass,
   the polynomial prover).  The paper's tables (I-VII), the footprint
   summary and the section V-D compile-overhead table come from
   `repro table all`.  Run with

     dune exec bench/main.exe                # ablation + microbenches
     dune exec bench/main.exe -- ablation    # ablation only
     dune exec bench/main.exe -- micro       # microbenchmarks only
*)

module P = Symalg.Poly
module Pr = Symalg.Prover

let hr = String.make 100 '='

(* ---------------------------------------------------------------- *)
(* Ablation study: which design choices earn the circuits            *)
(* ---------------------------------------------------------------- *)

(* Re-run the short-circuiting pass with individual analysis features
   disabled, counting the circuit points that still fire:
   - "no dim splitting": the non-overlap test without the Fig. 8
     dimension-splitting heuristic (the plain Hoeflinger condition) -
     this is what kills NW's Fig. 9 obligation;
   - "no refinement": whole-loop / whole-nest unions only, without the
     per-iteration U^{>i} and per-thread conditions of section V-B -
     this is what kills the read-write-mixing cases (Fig. 1 left,
     LUD's in-place perimeter and interior). *)
let run_ablation () =
  Printf.printf "%s\nAblation: circuit points rebased under disabled features\n%s\n"
    hr hr;
  Printf.printf "%-15s %12s %18s %16s %10s\n" "Benchmark" "full"
    "no dim splitting" "no refinement" "neither";
  let count options prog =
    let c = Core.Pipeline.compile ~options prog in
    let st = c.Core.Pipeline.stats in
    (st.Core.Shortcircuit.succeeded, st.Core.Shortcircuit.candidates)
  in
  let full = Core.Shortcircuit.default_options in
  let configs =
    [
      ("full", full);
      ("nosplit", { full with Core.Shortcircuit.split_depth = 0 });
      ("norefine", { full with Core.Shortcircuit.enable_refinement = false });
      ( "neither",
        {
          full with
          Core.Shortcircuit.split_depth = 0;
          enable_refinement = false;
        } );
    ]
  in
  List.iter
    (fun (name, prog) ->
      let results = List.map (fun (_, opts) -> count opts prog) configs in
      match results with
      | [ (f, tot); (ns, _); (nr, _); (nb, _) ] ->
          Printf.printf "%-15s %8d/%-3d %14d/%-3d %12d/%-3d %6d/%-3d\n" name f
            tot ns tot nr tot nb tot
      | _ -> ())
    [
      ("NW", Benchsuite.Nw.prog);
      ("LUD", Benchsuite.Lud.prog);
      ("Hotspot", Benchsuite.Hotspot.prog);
      ("LBM", Benchsuite.Lbm.prog);
    ];
  Printf.printf
    "\n(NW's Fig. 9 obligation is carried by either route alone - the\n\
    \ whole-wavefront proof via dimension splitting, or the per-thread\n\
    \ refinement whose point-vs-bar checks need no splits - and only\n\
    \ disabling both loses it; LUD's in-place perimeter and interior\n\
    \ need the refinements (each thread reads the block it rewrites);\n\
    \ Hotspot/LBM need neither because their reads target the\n\
    \ double-buffered previous grid)\n\n"

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks of the compiler itself                   *)
(* ---------------------------------------------------------------- *)

let nw_ctx () =
  let c = P.const in
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "i" ~lo:(c 0) ~hi:(P.sub (P.var "q") P.one) () in
  Pr.add_eq ctx "n" (P.add (P.mul (P.var "q") (P.var "b")) P.one)

let nw_lmads () =
  let v = P.var in
  let n = v "n" and b = v "b" and i = v "i" in
  let nb_b = P.sub (P.mul n b) b in
  let w =
    Lmads.Lmad.make
      (P.sum [ P.mul i b; n; P.one ])
      [
        Lmads.Lmad.dim (P.add i P.one) nb_b;
        Lmads.Lmad.dim b n;
        Lmads.Lmad.dim b P.one;
      ]
  in
  let rvert =
    Lmads.Lmad.make (P.mul i b)
      [ Lmads.Lmad.dim (P.add i P.one) nb_b; Lmads.Lmad.dim (P.add b P.one) n ]
  in
  (w, rvert)

let micro_tests () =
  let open Bechamel in
  let ctx = nw_ctx () in
  let w, rvert = nw_lmads () in
  let test_nonoverlap =
    Test.make ~name:"nonoverlap: NW Fig.9 proof"
      (Staged.stage (fun () -> ignore (Lmads.Nonoverlap.disjoint ctx w rvert)))
  in
  let test_prover =
    Test.make ~name:"prover: qb^2 - 2b - 1 >= 0"
      (Staged.stage (fun () ->
           let b = P.var "b" and q = P.var "q" in
           ignore
             (Pr.prove_nonneg ctx
                (P.sub (P.mul q (P.mul b b)) (P.add (P.scale 2 b) P.one)))))
  in
  let test_sc_nw =
    Test.make ~name:"pass: compile NW (memory + short-circuit)"
      (Staged.stage (fun () -> ignore (Core.Pipeline.compile Benchsuite.Nw.prog)))
  in
  let test_sc_hotspot =
    Test.make ~name:"pass: compile Hotspot"
      (Staged.stage (fun () ->
           ignore (Core.Pipeline.compile Benchsuite.Hotspot.prog)))
  in
  let test_interp =
    let args = Benchsuite.Nw.small_args ~q:2 ~b:4 in
    Test.make ~name:"interp: NW q=2 b=4"
      (Staged.stage (fun () -> ignore (Ir.Interp.run Benchsuite.Nw.prog args)))
  in
  [ test_nonoverlap; test_prover; test_sc_nw; test_sc_hotspot; test_interp ]

let run_micro () =
  let open Bechamel in
  Printf.printf "%s\nCompiler micro-benchmarks (Bechamel)\n%s\n" hr hr;
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"compiler" (micro_tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-45s %14.0f ns/run\n" name est
      | _ -> Printf.printf "%-45s (no estimate)\n" name)
    results

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if what = "ablation" || what = "all" then run_ablation ();
  if what = "micro" || what = "all" then run_micro ()
