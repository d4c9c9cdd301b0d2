(* The `repro` command-line driver.

     repro table [bench]        regenerate the paper's tables (four
                                variants: unoptimized, short-circuited,
                                memory-reused, arena-packed)
     repro validate [bench]     full-mode validation at reduced sizes
     repro lint [bench]         static memory-IR verification (memlint)
     repro trace [bench]        traced execution + dynamic cross-check
                                (memtrace); --json dumps the event log,
                                --diff compares the variants' logical
                                event skeletons
     repro dump [bench] [-O|-R|-P]
                                print the (memory-annotated) IR
     repro certify [bench]      re-check every rewrite's certificate;
                                --check gates them against the committed
                                bench/certs-baseline.json
     repro bench [--check]      emit the BENCH.json performance record
                                (-o names the file); with --check, gate
                                it against the committed
                                bench/baseline.json and exit nonzero on
                                regression
     repro chaos [bench]        seeded fault-injection campaign: inject
                                all five fault classes into each
                                benchmark and check the fail-safe
                                invariants (--json writes the campaign
                                record); exits nonzero on any violation
     repro prove-nw             show the Fig. 9 non-overlap proof; exits
                                nonzero unless W # Rvert and W # Rhoriz
                                are proved and W # W stays unproven

   A [bench] is a benchmark's name in any case, its table number 1-7,
   or `all`, the default ([Benchsuite.Suite.select]).

   Exit-code contract (see README): 0 = clean; 1 = a gate failed, a
   benchmark degraded through the fail-safe ladder, a chaos invariant
   was violated, or prove-nw's verdicts are not Fig. 9's; 124/125 =
   cmdliner usage/internal errors.  `dune runtest` runs the gates,
   the seed-7 chaos campaign, `trace all --diff`, `validate all` and
   `prove-nw` (test/dune).
   `repro table` and `repro bench` never die on the first fault: they
   run every selected benchmark and name every degraded or failed one
   in a final summary line.
*)

open Cmdliner

(* ---- table ----------------------------------------------------- *)

let pp_footprints ?(verbose = false) (o : Benchsuite.Runner.outcome) =
  let holes =
    o.Benchsuite.Runner.compiled.Core.Pipeline.pack_stats.Core.Pack.holes
  in
  let across f fps = String.concat " -> " (List.map f fps) in
  List.iter
    (fun (label, fps) ->
      let fps = List.map snd fps in
      let a (f : Benchsuite.Runner.footprint) =
        let base =
          if f.Benchsuite.Runner.f_scratch = 0 then
            string_of_int f.Benchsuite.Runner.f_allocs
          else
            Printf.sprintf "%d+%ds" f.Benchsuite.Runner.f_allocs
              f.Benchsuite.Runner.f_scratch
        in
        if f.Benchsuite.Runner.f_arena_allocs = 0 then base
        else if holes = 0 then
          Printf.sprintf "%s(%da)" base f.Benchsuite.Runner.f_arena_allocs
        else
          Printf.sprintf "%s(%da,%dh)" base
            f.Benchsuite.Runner.f_arena_allocs holes
      in
      let pk (f : Benchsuite.Runner.footprint) =
        Printf.sprintf "%.3g" f.Benchsuite.Runner.f_peak_bytes
      in
      Printf.printf "  footprint %-9s allocs %s | peak %s B (%s)\n" label
        (across a fps) (across pk fps)
        (String.concat "/" Core.Pipeline.variant_names);
      let hm (f : Benchsuite.Runner.footprint) =
        Printf.sprintf "%d/%d" f.Benchsuite.Runner.f_pool_hits
          f.Benchsuite.Runner.f_pool_misses
      in
      let pools = List.filter_map (fun f -> f.Benchsuite.Runner.f_pool) fps in
      if List.compare_lengths pools fps = 0 then begin
        Printf.printf "  pool      %-9s hit/miss %s\n" label (across hm fps);
        if verbose then
          Printf.printf "  pool      %-9s high-water %s B | fragmentation %s\n"
            label
            (across
               (fun p -> Printf.sprintf "%.3g" p.Gpu.Device.Pool.p_high_water)
               pools)
            (across
               (fun p ->
                 Printf.sprintf "%.0f%%"
                   (100. *. p.Gpu.Device.Pool.p_fragmentation))
               pools)
      end)
    o.Benchsuite.Runner.footprints

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* A JSON document as printed or written: one line. *)
let json_line v = Core.Json.to_string v ^ "\n"

(* A ratio BENCH.json records to four decimals. *)
let round4 x = float_of_string (Printf.sprintf "%.4f" x)

(* The prover's memoization effectiveness, its refutations by a
   concrete witness and its budget pressure: BENCH.json's [prover]
   object, whose misses the bench gate reads.  A nonzero [budget_exhausted]
   means some nonnegativity queries were truncated by the step budget
   - sound (the affected rewrites were skipped) but a signal the
   budget is too tight for the suite. *)
let prover_json (p : Symalg.Prover.stats) =
  let open Core.Json in
  let rate h m =
    if h + m = 0 then 0. else round4 (float_of_int h /. float_of_int (h + m))
  in
  ( "prover",
    Obj
      [
        ("sat_hits", int p.Symalg.Prover.sat_hits);
        ("sat_misses", int p.sat_misses);
        ("sat_resets", int p.sat_resets);
        ("sat_hit_rate", Num (rate p.sat_hits p.sat_misses));
        ("nonneg_hits", int p.nonneg_hits);
        ("nonneg_misses", int p.nonneg_misses);
        ("nonneg_resets", int p.nonneg_resets);
        ("nonneg_hit_rate", Num (rate p.nonneg_hits p.nonneg_misses));
        ("nonneg_refuted", int p.refuted);
        ("budget_exhausted", int p.budget_exhausted);
        ("verdict_hits", int p.verdict_hits);
        ("verdict_misses", int p.verdict_misses);
      ] )

(* One machine-readable performance record for the whole suite:
   per-benchmark modeled times and impacts per (device, dataset),
   memory footprints of the four variants, compile times, reuse- and
   pack-pass statistics, and the prover's memoization effectiveness. *)
let bench_json_of
    (outcomes : (Benchsuite.Runner.bench * Benchsuite.Runner.outcome) list)
    (pstats : Symalg.Prover.stats) : Core.Json.t =
  let open Core.Json in
  (* each variant's time, then the impact of each variant above unopt;
     opt's, the paper's column, keeps its plain name *)
  let row (r : Benchsuite.Table.row) =
    let impact (v, _) =
      ( (if v = "opt" then "impact" else v ^ "_impact"),
        Num (Benchsuite.Table.impact r v) )
    in
    Obj
      ([
         ("device", Str r.Benchsuite.Table.device);
         ("dataset", Str r.dataset);
         ("ref_ms", Num r.ref_ms);
       ]
      @ List.map (fun (v, ms) -> (v ^ "_ms", Num ms)) r.ms
      @ List.map impact (List.tl r.ms))
  in
  let footprint (f : Benchsuite.Runner.footprint) =
    let pool (ps : Gpu.Device.Pool.stats) =
      ( "pool",
        Obj
          [
            ("hits", int f.Benchsuite.Runner.f_pool_hits);
            ("misses", int f.f_pool_misses);
            ("device_bytes", Num ps.Gpu.Device.Pool.p_device_bytes);
            ("high_water_bytes", Num ps.p_high_water);
            ("fragmentation", Num (round4 ps.p_fragmentation));
          ] )
    in
    Obj
      ([
         ("allocs", int f.Benchsuite.Runner.f_allocs);
         ("arena_allocs", int f.f_arena_allocs);
         ("arena_bytes", Num f.f_arena_bytes);
         ("scratch", int f.f_scratch);
         ("alloc_bytes", Num f.f_alloc_bytes);
         ("peak_bytes", Num f.f_peak_bytes);
         ("traffic_bytes", Num f.f_traffic_bytes);
       ]
      @ Option.to_list (Option.map pool f.f_pool))
  in
  let bench_obj ((b : Benchsuite.Runner.bench), o) =
    let c = o.Benchsuite.Runner.compiled in
    let rst = c.Core.Pipeline.reuse_stats in
    let pst = c.pack_stats in
    Obj
      [
        ("name", Str b.name);
        ("table", int b.table_no);
        ("rows", Arr (List.map row o.table.Benchsuite.Table.rows));
        ( "footprints",
          Arr
            (List.map
               (fun (label, fps) ->
                 Obj
                   (("dataset", Str label)
                   :: List.map (fun (v, f) -> (v, footprint f)) fps))
               o.footprints) );
        ( "compile_s",
          Obj
            [
              ("base", Num c.time_base);
              ("shortcircuit", Num c.time_sc);
              ("reuse", Num c.time_reuse);
              ("pack", Num c.time_pack);
            ] );
        ("dead_allocs", int c.dead_allocs);
        ("reuse_dead_allocs", int c.reuse_dead_allocs);
        ("pack_dead_allocs", int c.pack_dead_allocs);
        ( "reuse_stats",
          Obj
            [
              ("candidates", int rst.Core.Reuse.candidates);
              ("coalesced", int rst.coalesced);
              ("size_proofs", int rst.size_proofs);
              ("chain_links", int rst.chain_links);
              ("rotated", int rst.rotated);
              ("hoisted", int rst.hoisted);
            ] );
        ( "pack_stats",
          Obj
            [
              ("arenas", int pst.Core.Pack.arenas);
              ("packed", int pst.packed);
              ("unpacked", int pst.unpacked);
              ("offset_proofs", int pst.offset_proofs);
              ("holes", int pst.holes);
              ("promoted", int pst.promoted);
            ] );
        (* per-pass obligation counts of the translation-validation
           run that rides along with every table compile *)
        ( "certify",
          Obj
            (List.map
               (fun (pass, (r : Core.Certify.report)) ->
                 ( pass,
                   Obj
                     [
                       ("emitted", int r.Core.Certify.emitted);
                       ("proved", int r.proved);
                       ("concretized", int r.concretized);
                       ("failed", int r.failed);
                     ] ))
               c.certs) );
      ]
  in
  let date =
    let t = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday
  in
  Obj
    [
      ("date", Str date);
      ("benchmarks", Arr (List.map bench_obj outcomes));
      prover_json pstats;
    ]

let default_bench_json_name () =
  let t = Unix.localtime (Unix.time ()) in
  Printf.sprintf "BENCH_%04d-%02d-%02d.json" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday

(* The cross-benchmark summaries closing [repro table all]: peak
   footprints, the paper's second motivation (section I), and the
   compile-time overhead of short-circuiting (section V-D). *)
let print_summaries outcomes =
  let hr = String.make 100 '=' in
  Printf.printf
    "%s\nMemory footprint: peak live bytes, unoptimized / short-circuited / \
     reused / packed\n"
    hr;
  Printf.printf "%-15s %-10s" "Benchmark" "dataset";
  List.iter
    (fun v -> Printf.printf " %12s" (v ^ " (MB)"))
    Core.Pipeline.variant_names;
  Printf.printf " %9s %s\n" "saved" "dead allocs (sc+reuse+pack)";
  List.iter
    (fun ((b : Benchsuite.Runner.bench), (o : Benchsuite.Runner.outcome)) ->
      let c = o.Benchsuite.Runner.compiled in
      List.iter
        (fun (ds, fps) ->
          let peaks =
            List.map (fun (_, f) -> f.Benchsuite.Runner.f_peak_bytes) fps
          in
          let unopt = List.hd peaks and top = List.hd (List.rev peaks) in
          Printf.printf "%-15s %-10s" b.name ds;
          List.iter (fun p -> Printf.printf " %12.1f" (p /. 1e6)) peaks;
          Printf.printf " %8.0f%% %5d+%d+%d\n"
            (100. *. (unopt -. top) /. Float.max 1.0 unopt)
            c.Core.Pipeline.dead_allocs c.reuse_dead_allocs
            c.pack_dead_allocs)
        o.footprints)
    outcomes;
  Printf.printf
    "\n%s\nSection V-D: compile-time overhead of the short-circuiting pass\n"
    hr;
  Printf.printf "%-15s %12s %14s %10s\n" "Benchmark" "base (ms)"
    "+short-circ." "overhead";
  List.iter
    (fun ((b : Benchsuite.Runner.bench), (o : Benchsuite.Runner.outcome)) ->
      let c = o.Benchsuite.Runner.compiled in
      let base = c.Core.Pipeline.time_base and sc = c.time_sc in
      Printf.printf "%-15s %10.2fms %12.2fms %9.0f%%\n" b.name (base *. 1e3)
        ((base +. sc) *. 1e3)
        (100. *. sc /. Float.max 1e-9 base))
    outcomes;
  print_string
    "(paper: ~10% for most benchmarks; NW/LUD larger because of the\n\
    \ non-overlap proofs - NW took 17s with the external SMT solver,\n\
    \ which our built-in algebraic prover replaces)\n\n"

(* The text report of one table run: the table, pass statistics,
   footprints, contained faults and the reduced-size traffic check. *)
let print_outcome options (b : Benchsuite.Runner.bench)
    (o : Benchsuite.Runner.outcome) =
  print_string (Benchsuite.Table.to_string o.Benchsuite.Runner.table);
  let st = o.Benchsuite.Runner.compiled.Core.Pipeline.stats in
  let rst = o.Benchsuite.Runner.compiled.Core.Pipeline.reuse_stats in
  let pst = o.Benchsuite.Runner.compiled.Core.Pipeline.pack_stats in
  if options.Core.Shortcircuit.verbose then begin
    Fmt.pr "%a@.@." Core.Shortcircuit.pp_stats st;
    Fmt.pr "%a@.@." Core.Reuse.pp_stats rst;
    Fmt.pr "%a@.@." Core.Pack.pp_stats pst;
    Fmt.pr "%a@.@." Symalg.Prover.pp_stats (Symalg.Prover.stats ())
  end
  else begin
    Printf.printf "  short-circuiting: %d/%d candidates, %d vars rebased\n"
      st.Core.Shortcircuit.succeeded st.Core.Shortcircuit.candidates
      st.Core.Shortcircuit.rebased_vars;
    Printf.printf
      "  memory reuse: %d chain links, %d rotated, %d hoisted, %d/%d \
       coalesced (%d more allocs dropped)\n"
      rst.Core.Reuse.chain_links rst.Core.Reuse.rotated
      rst.Core.Reuse.hoisted rst.Core.Reuse.coalesced
      rst.Core.Reuse.candidates
      o.Benchsuite.Runner.compiled.Core.Pipeline.reuse_dead_allocs;
    Printf.printf
      "  packing: %d arenas, %d placed (%d promoted), %d unpacked, %d \
       holes, %d offset proofs (%d member allocs absorbed)\n"
      pst.Core.Pack.arenas pst.Core.Pack.packed pst.Core.Pack.promoted
      pst.Core.Pack.unpacked pst.Core.Pack.holes
      pst.Core.Pack.offset_proofs
      o.Benchsuite.Runner.compiled.Core.Pipeline.pack_dead_allocs
  end;
  pp_footprints ~verbose:options.Core.Shortcircuit.verbose o;
  List.iter
    (fun (r : Core.Pipeline.recovery) ->
      Printf.printf "  RECOVERED fault in %s: %s -> fell back to %s\n"
        r.Core.Pipeline.r_pass
        (Core.Fault.to_string r.Core.Pipeline.r_fault)
        r.Core.Pipeline.r_fallback)
    o.Benchsuite.Runner.compiled.Core.Pipeline.recovery;
  let t =
    Benchsuite.Runner.traffic_comparison o.Benchsuite.Runner.compiled
      (b.small_args ())
  in
  let mb x = x /. 1e6 in
  let dev m m' = if m' = 0. then 0. else 100. *. (m -. m') /. m' in
  Printf.printf
    "  traffic @ reduced size: kernels %.3f MB measured vs %.3f MB modeled \
     (%+.1f%%), copies %.3f vs %.3f MB | memtrace %s\n\n"
    (mb t.Benchsuite.Runner.measured_rw)
    (mb t.Benchsuite.Runner.modeled_rw)
    (dev t.Benchsuite.Runner.modeled_rw t.Benchsuite.Runner.measured_rw)
    (mb t.Benchsuite.Runner.measured_copy)
    (mb t.Benchsuite.Runner.modeled_copy)
    (if Core.Memtrace.ok t.Benchsuite.Runner.check then "clean"
     else "VIOLATIONS")

(* The table of every selected benchmark, run with one set of options,
   each outcome handed to [show] as it completes; a benchmark that
   raises is named and left out, so every one runs.  Returns the
   outcomes and every benchmark that failed or degraded through the
   fail-safe ladder.  The prover's stats count these compiles alone
   until the next compile. *)
let run_tables ~show options reuse pack pool fail_safe bs =
  Symalg.Prover.reset_stats ();
  let results =
    List.map
      (fun (b : Benchsuite.Runner.bench) ->
        match
          Benchsuite.Runner.run_table ~options ~reuse ~pack ~pool ~fail_safe b
        with
        | o ->
            show b o;
            (b, Ok o)
        | exception e ->
            Printf.printf "bench %-14s FAILED: %s\n\n" b.name
              (Printexc.to_string e);
            (b, Error (Printexc.to_string e)))
      bs
  in
  let outcomes =
    List.filter_map
      (function b, Ok o -> Some (b, o) | _, Error _ -> None)
      results
  in
  let faults =
    List.filter_map
      (fun ((b : Benchsuite.Runner.bench), r) ->
        match r with
        | Error e -> Some (Printf.sprintf "%s failed (%s)" b.name e)
        | Ok (o : Benchsuite.Runner.outcome) -> (
            match o.compiled.Core.Pipeline.recovery with
            | [] -> None
            | r :: _ ->
                Some
                  (Printf.sprintf "%s degraded (%s)" b.name
                     (Core.Fault.layer r.Core.Pipeline.r_fault))))
      results
  in
  (outcomes, faults)

let faulted = function
  | [] -> Ok ()
  | faults -> Error ("degraded/failed benchmarks: " ^ String.concat "; " faults)

let write_record path json =
  write_file path json;
  Printf.printf "wrote %s\n" path

let run_table which options reuse pack pool fail_safe budget markdown =
  Symalg.Prover.set_budget budget;
  Result.bind (Benchsuite.Suite.select which) (fun bs ->
      let show b o =
        if markdown then
          Fmt.pr "%a" Benchsuite.Table.pp_markdown o.Benchsuite.Runner.table
        else print_outcome options b o
      in
      let outcomes, faults =
        run_tables ~show options reuse pack pool fail_safe bs
      in
      (* the cross-benchmark summaries and the ablation close a run of
         the whole suite *)
      let suite = List.compare_length_with bs 1 > 0 in
      if suite && not markdown then print_summaries outcomes;
      if suite && markdown then
        Fmt.pr "%a" Benchsuite.Table.pp_ablation
          [
            ("NW", Benchsuite.Nw.prog);
            ("LUD", Benchsuite.Lud.prog);
            ("Hotspot", Benchsuite.Hotspot.prog);
            ("LBM", Benchsuite.Lbm.prog);
          ];
      faulted faults)

(* Run [check] on every selected benchmark, each before the verdict, so
   one failure does not hide another. *)
let check_each which ~error check =
  Result.bind (Benchsuite.Suite.select which) (fun bs ->
      if List.fold_left (fun ok b -> check b && ok) true bs then Ok ()
      else Error error)

(* ---- validate --------------------------------------------------- *)

let run_validate which =
  let validate (b : Benchsuite.Runner.bench) =
    let v = Benchsuite.Runner.validate b.prog (b.small_args ()) in
    Printf.printf
      "%-14s interp-match: %s | copies %d -> %d (%d elided) | circuits %d\n"
      b.name
      (String.concat " "
         (List.map
            (fun (n, ok) -> Printf.sprintf "%s=%b" n ok)
            v.Benchsuite.Runner.ok))
      v.Benchsuite.Runner.copies_unopt v.Benchsuite.Runner.copies_opt
      v.Benchsuite.Runner.elided v.Benchsuite.Runner.sc_succeeded;
    List.for_all snd v.Benchsuite.Runner.ok
  in
  check_each which ~error:"validation failed" validate

(* ---- lint -------------------------------------------------------- *)

let run_lint which options pack verbose_reports =
  let lint (b : Benchsuite.Runner.bench) =
    let c = Core.Pipeline.compile ~options ~pack ~lint:true b.prog in
    List.iter
      (fun (_, r) ->
        if verbose_reports || not (Core.Memlint.ok r) then
          Fmt.pr "%a@.@." Core.Memlint.pp_report r)
      c.Core.Pipeline.lint;
    match Core.Pipeline.first_lint_error c.Core.Pipeline.lint with
    | None ->
        let warns =
          List.fold_left
            (fun n (_, r) -> n + List.length (Core.Memlint.warnings r))
            0 c.Core.Pipeline.lint
        in
        Printf.printf "%-14s %d stages clean (%d warnings)\n" b.name
          (List.length c.Core.Pipeline.lint)
          warns;
        true
    | Some (stage, v) ->
        Fmt.epr "%-14s violation introduced by %s: %a@." b.name stage
          Core.Memlint.pp_violation v;
        false
  in
  check_each which ~error:"lint failed" lint

(* ---- trace ------------------------------------------------------- *)

(* Full-mode traced execution of every pipeline variant at the reduced
   size, cross-checked by memtrace.  Human output shows the checker's
   verdict and the per-kernel traffic histogram of the optimized run;
   [--json] emits the raw event logs instead (to stdout, or to
   <out>/<bench>.json per benchmark when [-o] is given). *)

let print_histogram t =
  let tr = Core.Trace.traffic t in
  Printf.printf "  %-18s %8s %12s %12s\n" "kernel" "launches" "read MB"
    "write MB";
  List.iter
    (fun (label, launches, r, w) ->
      Printf.printf "  %-18s %8d %12.4f %12.4f\n" label launches (r /. 1e6)
        (w /. 1e6))
    (Core.Trace.histogram t);
  Printf.printf
    "  total: %.4f MB read, %.4f MB written, %.4f MB copied (%.4f MB \
     elided)\n"
    (tr.Core.Trace.t_kernel_reads /. 1e6)
    (tr.Core.Trace.t_kernel_writes /. 1e6)
    (tr.Core.Trace.t_copy_bytes /. 1e6)
    (tr.Core.Trace.t_elided_bytes /. 1e6)

let trace_json clean traces =
  Core.Json.Obj
    (("clean", Core.Json.Bool clean)
    :: List.map
         (fun (v, (t : Benchsuite.Runner.traced)) ->
           (v, Core.Trace.to_json t.Benchsuite.Runner.trace))
         traces)

(* --diff: the optimizations may move and elide storage but must not
   change the logical event sequence.  Compare each variant's trace
   skeleton with the one below it; any divergence is a failure. *)
let diff_traces (b : Benchsuite.Runner.bench)
    (traces : (string * Benchsuite.Runner.traced) list) : bool =
  let pair (_, (ta : Benchsuite.Runner.traced)) (_, tb) =
    let ta = ta.Benchsuite.Runner.trace and tb = tb.Benchsuite.Runner.trace in
    match Core.Trace.diff ta tb with
    | [] -> true
    | ds ->
        Printf.printf "%-14s %s vs %s: %d divergence(s)\n" b.name
          (Core.Trace.variant ta) (Core.Trace.variant tb) (List.length ds);
        List.iter (fun d -> Printf.printf "  %s\n" d) ds;
        false
  in
  let rec rungs = function
    | below :: (above :: _ as rest) -> (below, above) :: rungs rest
    | _ -> []
  in
  let ok =
    List.fold_left (fun ok (ta, tb) -> pair ta tb && ok) true (rungs traces)
  in
  if ok then
    Printf.printf "%-14s skeletons agree across %s (%d logical events)\n"
      b.name
      (String.concat "/" (List.map fst traces))
      (List.length
         (Core.Trace.skeleton (snd (List.hd traces)).Benchsuite.Runner.trace));
  ok

let run_trace which json diff out =
  let trace (b : Benchsuite.Runner.bench) =
    let traces = Benchsuite.Runner.trace_check b.prog (b.small_args ()) in
    let clean =
      List.for_all
        (fun (_, (t : Benchsuite.Runner.traced)) ->
          Core.Memtrace.ok t.Benchsuite.Runner.check)
        traces
    in
    if diff then diff_traces b traces && clean
    else begin
      if json then (
        let s = json_line (trace_json clean traces) in
        match out with
        | None -> print_string s
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let path = Filename.concat dir (b.name ^ ".json") in
            write_file path s;
            Printf.printf "%-14s wrote %s (%s)\n" b.name path
              (if clean then "clean" else "VIOLATIONS"))
      else begin
        List.iter
          (fun (_, (t : Benchsuite.Runner.traced)) ->
            Fmt.pr "%a@." Core.Memtrace.pp_report t.Benchsuite.Runner.check)
          traces;
        print_histogram (List.assoc "opt" traces).Benchsuite.Runner.trace;
        print_newline ()
      end;
      clean
    end
  in
  check_each which ~error:"memtrace cross-check failed" trace

(* ---- dump -------------------------------------------------------- *)

let run_dump which opt reuse pack =
  let variant =
    if pack then "pack"
    else if reuse then "reuse"
    else if opt then "opt"
    else "unopt"
  in
  Result.map
    (List.iter (fun (b : Benchsuite.Runner.bench) ->
         Core.Pipeline.variants (Core.Pipeline.compile b.prog)
         |> List.assoc variant |> Ir.Pretty.prog_to_string |> print_endline))
    (Benchsuite.Suite.select which)

(* ---- bench ------------------------------------------------------- *)

(* One gate run: parse the committed baseline record at [path] and the
   current record, compare them with [gate] and print the report -
   followed by [hint] when it carries notes; fail on any regression.
   [path] is relative to the repository root, or to the build root,
   where `dune runtest` runs the gates (test/dune). *)
let run_gate ~label ~baseline:path ?(hint = "") gate cur_s =
  let ( let* ) = Result.bind in
  let parse what s =
    Result.map_error (fun e -> what ^ " parse error: " ^ e) (Core.Json.parse s)
  in
  let* base_s =
    Result.map_error
      (fun e -> Printf.sprintf "baseline %s: %s" path e)
      (read_file path)
  in
  let* base = parse "baseline" base_s in
  let* cur = parse "current" cur_s in
  let g = gate base cur in
  let rep = Benchsuite.Benchjson.report ~label g in
  print_string rep;
  if g.Benchsuite.Benchjson.notes <> [] then print_string hint;
  if Benchsuite.Benchjson.ok g then Ok ()
  else
    Error
      (Printf.sprintf "%s failed: %d regression(s)" label
         (List.length g.Benchsuite.Benchjson.regressions))

(* The bench-trajectory gate: emit a fresh BENCH.json and, with
   [--check], compare it against the committed baseline.  Regressions -
   modeled times above tolerance, growing allocation counts or peak
   footprints - exit nonzero; the textual diff report goes to stdout.
   Refresh the baseline with `repro bench -o bench/baseline.json`. *)

let run_bench options reuse pack pool fail_safe budget check out =
  Symalg.Prover.set_budget budget;
  let outcomes, faults =
    run_tables
      ~show:(fun _ _ -> ())
      options reuse pack pool fail_safe Benchsuite.Suite.all
  in
  let json = json_line (bench_json_of outcomes (Symalg.Prover.stats ())) in
  (match out with
  | Some path -> write_record path json
  | None -> if not check then write_record (default_bench_json_name ()) json);
  Result.bind (faulted faults) (fun () ->
      if check then
        run_gate ~label:"bench gate" ~baseline:"bench/baseline.json"
          (fun base cur ->
            Benchsuite.Benchjson.gate ~baseline:base ~current:cur)
          json
      else Ok ())

(* ---- certify ----------------------------------------------------- *)

(* Translation validation of the optimization pipeline: compile with
   ~certify:true so every pass emits per-rewrite proof obligations,
   then report what the independent checker re-derived.  Any refuted
   obligation exits nonzero, attributed to its pass and rewrite like a
   lint error. *)

let cert_json_of name certs =
  Core.Json.Obj
    [
      ("name", Core.Json.Str name);
      ( "passes",
        Core.Json.Arr
          (List.map (fun (_, r) -> Core.Certify.json_of_report r) certs) );
    ]

(* The combined certificate document: the per-benchmark documents,
   all the cert gate reads.  The prover's work over the same certified
   compiles is gated in BENCH.json, whose table runs certify too. *)
let cert_doc_of docs = Core.Json.Obj [ ("benchmarks", Core.Json.Arr docs) ]

let run_certify which options reuse pack verbose_reports json out check =
  Result.bind (Benchsuite.Suite.select which) (fun bs ->
      (* With --json to stdout, keep stdout pure JSON (pipeable into
         bench/certs-baseline.json): every human-readable line -
         summaries, -r reports, "wrote" confirmations - goes to
         stderr.  With --check, stdout carries the gate report
         instead. *)
      let stdout_is_json = json && out = None && not check in
      let human : ('a, out_channel, unit) format -> 'a =
        if stdout_is_json then Printf.eprintf else Printf.printf
      in
      (* Compile + check every selected benchmark, returning the
         per-benchmark JSON documents.  With [strict], the first
         refuted obligation is an error; under --check the gate
         attributes failures instead, so generation never aborts. *)
      let certify_docs ~strict () =
        let all_ok = ref true in
        let docs =
          List.map
            (fun (b : Benchsuite.Runner.bench) ->
              let c =
                Core.Pipeline.compile ~options ~reuse ~pack ~certify:true
                  b.prog
              in
              let certs = c.Core.Pipeline.certs in
              List.iter
                (fun (_, r) ->
                  if verbose_reports || not (Core.Certify.ok r) then
                    if json || check then
                      Fmt.epr "%a@.@." Core.Certify.pp_report r
                    else Fmt.pr "%a@.@." Core.Certify.pp_report r)
                certs;
              (match Core.Pipeline.first_cert_failure certs with
              | None ->
                  let tally f =
                    List.fold_left (fun n (_, r) -> n + f r) 0 certs
                  in
                  human
                    "%-14s %d obligations: %d proved, %d concretized, 0 \
                     failed\n"
                    b.name
                    (tally (fun (r : Core.Certify.report) ->
                         r.Core.Certify.emitted))
                    (tally (fun r -> r.Core.Certify.proved))
                    (tally (fun r -> r.Core.Certify.concretized))
              | Some (pass, ch) ->
                  Fmt.epr "%-14s refuted obligation in %s: %a@." b.name pass
                    Core.Certify.pp_checked ch;
                  all_ok := false);
              cert_json_of b.name certs)
            bs
        in
        if !all_ok || not strict then Ok docs
        else Error "certification failed"
      in
      if check then
        Result.bind (certify_docs ~strict:false ()) (fun docs ->
            run_gate ~label:"cert gate" ~baseline:"bench/certs-baseline.json"
              ~hint:
                "refresh with: dune exec bin/repro.exe -- certify all --json \
                 > bench/certs-baseline.json\n"
              (fun base cur ->
                Benchsuite.Benchjson.cert_gate ~baseline:base ~current:cur)
              (Core.Json.to_string (cert_doc_of docs)))
      else
        Result.bind (certify_docs ~strict:true ()) (fun docs ->
            (if json then
               match out with
               | None -> print_string (json_line (cert_doc_of docs))
               | Some dir ->
                   if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                   List.iter2
                     (fun (b : Benchsuite.Runner.bench) doc ->
                       let path =
                         Filename.concat dir (b.name ^ ".cert.json")
                       in
                       write_file path (json_line doc);
                       Printf.eprintf "%-14s wrote %s\n" b.name path)
                     bs docs);
            Ok ()))

(* ---- chaos ------------------------------------------------------- *)

(* The seeded fault-injection campaign (Benchsuite.Chaosdrive): inject
   every fault class of the taxonomy into each selected benchmark and
   check the three fail-safe invariants - no crash, bit-equal results,
   every degraded run blames its fault and names its fallback.  Any
   violation, and any injection that did not fire (past the excused
   ones, Chaosdrive.unfired), exits nonzero; --json writes the campaign
   record CI archives. *)

let run_chaos which seed rounds json out =
  Result.bind (Benchsuite.Suite.select which) (fun bs ->
      let targets =
        List.map
          (fun (b : Benchsuite.Runner.bench) ->
            (b.name, b.prog, b.small_args ()))
          bs
      in
      let c = Benchsuite.Chaosdrive.run ~seed ~rounds targets in
      (* keep stdout pure JSON when the record goes there *)
      let human = if json && out = None then prerr_string else print_string in
      human (Benchsuite.Chaosdrive.report c);
      (if json then
         let doc = json_line (Benchsuite.Chaosdrive.json c) in
         match out with
         | None -> print_string doc
         | Some dir ->
             if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
             let path = Filename.concat dir "campaign.json" in
             write_file path doc;
             Printf.printf "wrote %s\n" path);
      if not (Benchsuite.Chaosdrive.ok c) then
        Error
          (Printf.sprintf "chaos campaign: %d invariant violation(s)"
             (List.length (Benchsuite.Chaosdrive.violations c)))
      else
        match Benchsuite.Chaosdrive.unfired c with
        | [] -> Ok ()
        | u ->
            Error
              (Printf.sprintf "chaos campaign: %d injection(s) did not fire"
                 (List.length u)))

(* ---- prove-nw ---------------------------------------------------- *)

(* Fig. 9's proof (Benchsuite.Nw.fig9): both read sets proved
   disjoint from W, and W # W left unproven, or exit nonzero. *)
let run_prove_nw () =
  let { Benchsuite.Nw.ctx; w; rvert; rhoriz } = Benchsuite.Nw.fig9 () in
  Fmt.pr "Assumptions: n = q*b + 1, q >= 2, b >= 2, 0 <= i <= q-1@.";
  Fmt.pr "W      = %a@." Lmads.Lmad.pp w;
  Fmt.pr "Rvert  = %a@." Lmads.Lmad.pp rvert;
  Fmt.pr "Rhoriz = %a@.@." Lmads.Lmad.pp rhoriz;
  let vert = Lmads.Nonoverlap.disjoint ctx w rvert in
  Fmt.pr "W  # Rvert : %b@." vert;
  let horiz = Lmads.Nonoverlap.disjoint ctx w rhoriz in
  Fmt.pr "W  # Rhoriz: %b@." horiz;
  let self = Lmads.Nonoverlap.disjoint ctx w w in
  Fmt.pr "W  # W     : %b (must stay unproven)@." self;
  if vert && horiz && not self then Ok ()
  else Error "Fig. 9: W # Rvert and W # Rhoriz must be proved, W # W not"

(* ---- cmdliner ---------------------------------------------------- *)

let to_exit = function
  | Ok () -> 0
  | Error e ->
      prerr_endline ("error: " ^ e);
      1

let bench_arg =
  Arg.(value & pos 0 string "all" & info [] ~docv:"BENCH")

(* Short-circuiting options as CLI flags, shared by the subcommands
   that run the pipeline. *)
let options_term =
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Trace circuit attempts and print full pass statistics.")
  in
  let no_refinement =
    Arg.(
      value & flag
      & info [ "no-refinement" ]
          ~doc:
            "Disable the per-iteration / per-thread refinements of \
             section V-B (ablation).")
  in
  let split_depth =
    Arg.(
      value
      & opt int Core.Shortcircuit.default_options.Core.Shortcircuit.split_depth
      & info [ "split-depth" ] ~docv:"N"
          ~doc:
            "Recursion budget of the dimension-splitting heuristic in the \
             non-overlap test (0 disables splitting).")
  in
  Term.(
    const (fun verbose no_refinement split_depth ->
        {
          Core.Shortcircuit.verbose;
          enable_refinement = not no_refinement;
          split_depth;
        })
    $ verbose $ no_refinement $ split_depth)

(* The reuse and packing passes trace their decisions under -v. *)
let reuse_term =
  Term.(
    const (fun (options : Core.Shortcircuit.options) ->
        { Core.Reuse.verbose = options.Core.Shortcircuit.verbose })
    $ options_term)

let pack_term =
  Term.(
    const (fun (options : Core.Shortcircuit.options) ->
        { Core.Pack.verbose = options.Core.Shortcircuit.verbose })
    $ options_term)

(* [--no-pool] reverts the allocator model to all-miss: every top-level
   allocation is charged [alloc_miss_cost], as before the pool existed
   (the A/B baseline for the pool's latency effect). *)
let pool_term =
  let no_pool =
    Arg.(
      value & flag
      & info [ "no-pool" ]
          ~doc:
            "Disable the size-class allocation pool: every top-level \
             allocation is charged the full device-allocation cost \
             (A/B baseline).")
  in
  Term.(const (fun no_pool -> not no_pool) $ no_pool)

(* The degradation ladder is on by default for table/bench runs: a
   crashing pass, lint error, or refuted certificate degrades the
   affected variant (recorded in the recovery report, nonzero exit)
   instead of aborting the whole run.  [--no-fail-safe] restores
   fail-fast aborts for debugging a fault at its source. *)
let fail_safe_term =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "fail-safe" ]
              ~doc:
                "Contain pass crashes, lint errors, and refuted \
                 certificates by degrading to the last good pipeline \
                 variant (the default)." );
          ( false,
            info [ "no-fail-safe" ]
              ~doc:
                "Abort on the first pipeline fault instead of degrading \
                 (fail-fast debugging)." );
        ])

(* [--prover-budget N] bounds the symbolic prover's work per public
   query; exhausted queries return Undecided, so the affected rewrite
   is skipped - never an abort.  Exhaustion counts land in the stats
   and in BENCH.json's prover object. *)
let prover_budget_term =
  Arg.(
    value
    & opt int Symalg.Prover.unlimited
    & info [ "prover-budget" ] ~docv:"STEPS"
        ~doc:
          "Bound the prover's nonnegativity eliminations per query at \
           $(docv) (-1 = unlimited, 0 = every obligation Undecided).  \
           Exhaustion soundly skips the rewrite and is counted in the \
           prover stats.")

let table_cmd =
  let markdown =
    Arg.(
      value & flag
      & info [ "markdown" ]
          ~doc:
            "Print only the tables, in EXPERIMENTS.md's markdown row \
             format (the paper's Unopt/Opt/Impact columns next to the \
             published ones); with $(b,all), the ablation of the \
             short-circuiting analysis follows Table VII.")
  in
  Cmd.v (Cmd.info "table" ~doc:"Regenerate a paper table (1-7 or name or all)")
    Term.(
      const (fun w o r pk p fs pb md ->
          to_exit (run_table w o r pk p fs pb md))
      $ bench_arg $ options_term $ reuse_term $ pack_term $ pool_term
      $ fail_safe_term $ prover_budget_term $ markdown)

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Full-mode validation against the reference interpreter")
    Term.(const (fun w -> to_exit (run_validate w)) $ bench_arg)

let dump_cmd =
  let opt =
    Arg.(value & flag & info [ "O"; "optimized" ] ~doc:"Dump the optimized IR.")
  in
  let reuse =
    Arg.(
      value & flag
      & info [ "R"; "reuse" ] ~doc:"Dump the memory-reused IR.")
  in
  let pack =
    Arg.(
      value & flag
      & info [ "P"; "pack" ] ~doc:"Dump the arena-packed IR.")
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print a benchmark's memory-annotated IR")
    Term.(
      const (fun w o r p -> to_exit (run_dump w o r p))
      $ bench_arg $ opt $ reuse $ pack)

let lint_cmd =
  let reports =
    Arg.(
      value & flag
      & info [ "r"; "reports" ]
          ~doc:"Print the full per-stage report even when clean.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Verify the memory IR of a benchmark (or all) after every \
          pipeline pass")
    Term.(
      const (fun w o p r -> to_exit (run_lint w o p r))
      $ bench_arg $ options_term $ pack_term $ reports)

let trace_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the raw event logs as JSON instead of the summary.")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare the unopt/opt/reuse/pack traces' logical event \
             skeletons; the optimizations may move or elide storage but \
             must not change the event sequence.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--json): write one $(i,BENCH).json per benchmark into \
             $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute a benchmark (or all) in full mode with event tracing and \
          cross-check the dynamic footprints against the static LMAD \
          annotations")
    Term.(
      const (fun w j d o -> to_exit (run_trace w j d o))
      $ bench_arg $ json $ diff $ out)

let bench_cmd =
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Compare the performance record against the committed \
             bench/baseline.json and exit nonzero on any regression (time \
             more than 5% above it, growing allocation count or peak \
             footprint; footprint counters are exact).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the fresh record to $(docv) (default BENCH_<date>.json \
             when run without $(b,--check); refresh the baseline with \
             -o bench/baseline.json).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Emit the machine-readable performance record and optionally gate \
          it against the committed baseline")
    Term.(
      const (fun o r pk p fs pb c out ->
          to_exit (run_bench o r pk p fs pb c out))
      $ options_term $ reuse_term $ pack_term $ pool_term $ fail_safe_term
      $ prover_budget_term $ check $ out)

let certify_cmd =
  let reports =
    Arg.(
      value & flag
      & info [ "r"; "reports" ]
          ~doc:"Print the full per-pass certificate even when clean.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the checked certificates as JSON instead of a summary.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--json): write one $(i,BENCH).cert.json per benchmark \
             into $(docv) instead of stdout.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Compare the certificates against the committed \
             bench/certs-baseline.json and exit nonzero on any regression \
             (lost obligation, weakened verdict, dropped or missing \
             emitted/proved count, or any currently failed obligation).")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Re-derive every optimization rewrite's proof obligations with the \
          independent certificate checker (translation validation); exit \
          nonzero on any refuted obligation")
    Term.(
      const (fun w o ru pk r j out c ->
          to_exit (run_certify w o ru pk r j out c))
      $ bench_arg $ options_term $ reuse_term $ pack_term $ reports $ json
      $ out $ check)

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "PRNG seed for the injection sites; the campaign is \
             reproducible from its seed.")
  in
  let rounds =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Repeat the per-benchmark injection draws $(docv) times for \
             wider site coverage.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the campaign record as JSON (the CI artifact).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--json): write campaign.json into $(docv) instead \
             of stdout.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded fault-injection campaign: inject prover exhaustion, pass \
          crashes, forged certificates, device OOM, and pool-cap pressure \
          into each benchmark; exit nonzero unless every run stays \
          crash-free, bit-equal to the reference, and blames its fault")
    Term.(
      const (fun w s r j o -> to_exit (run_chaos w s r j o))
      $ bench_arg $ seed $ rounds $ json $ out)

let prove_cmd =
  Cmd.v (Cmd.info "prove-nw" ~doc:"Discharge the Fig. 9 proof obligation")
    Term.(const (fun () -> to_exit (run_prove_nw ())) $ const ())

let () =
  let doc = "Memory Optimizations in an Array Language (SC22) - reproduction" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "repro" ~doc)
          [
            table_cmd; validate_cmd; lint_cmd; trace_cmd; dump_cmd; bench_cmd;
            certify_cmd; chaos_cmd; prove_cmd;
          ]))
