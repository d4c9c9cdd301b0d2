(* The four workloads and their operations.  An operation is one
   program of the corpus (one compile, one lint, one execution check)
   or, for chaos, one campaign over the whole corpus; each runs in a
   fresh child ([Child.run]) and reports a [sample].  The client is a
   closed loop: the next operation starts when the previous one has
   returned. *)

module P = Core.Pipeline
module Exec = Gpu.Exec
module Device = Gpu.Device

type kind = Compile | Lint | Execute | Chaos

let kinds =
  [ ("compile", Compile); ("lint", Lint); ("execute", Execute);
    ("chaos", Chaos) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* Chaos runs what `repro chaos all` runs: the seven paper programs.
   Lint runs `repro lint all` without LUD: LUD's 12-19 s of memlint
   would make a lint run last as long as a chaos run, and the two
   together would not fit the benchmark's total time; LUD's compile cost
   stays in compile and chaos.  Neither runs nw-src, which adds only the
   frontend (measured by compile) and would repeat NW's 18 s of memlint
   in lint. *)
let corpus = function
  | Compile | Execute -> Corpus.all
  | Lint ->
      List.filter
        (fun (e : Corpus.entry) -> not (List.mem e.name [ "nw-src"; "lud" ]))
        Corpus.all
  | Chaos ->
      List.filter (fun (e : Corpus.entry) -> e.name <> "nw-src") Corpus.all

type sample = {
  prog : string;
  dt : float;
      (** CPU seconds the operation took in its child, so time the child
          spent stopped for calibration is left out *)
  parts : (string * float) list;
      (** CPU seconds per program: one entry, or one per program of a
          chaos campaign *)
  heap_words : int;  (** the child's [top_heap_words] afterwards *)
  cal : float;
      (** the calibration kernel's mean time around and during it
          ({!Calib}), set by [round] *)
  attempted : int;
  failed : int;  (** attempts among [attempted] that failed *)
  failures : string list;
  counts : (string * float) list;  (** the parent sums them per round *)
  spans : Span.t list;  (** empty unless traced *)
  recording : float;  (** seconds spent recording [spans] *)
  fingerprint : string;  (** drift-guard summary; [""] unless asked *)
}

let failed_sample prog why =
  {
    prog;
    dt = 0.;
    parts = [];
    heap_words = 0;
    cal = nan;
    attempted = 1;
    failed = 1;
    failures = [ why ];
    counts = [];
    spans = [];
    recording = 0.;
    fingerprint = "";
  }

let prover_counts (d : int array) =
  Array.to_list
    (Array.mapi
       (fun i f -> ("prover." ^ f, float_of_int d.(i)))
       Span.prover_fields)

type timing = {
  t_dt : float;
  t_prover : int array;  (** deltas, indexed like {!Span.prover_fields} *)
  t_spans : Span.t list;
  t_recording : float;
  t_heap_words : int;
}

(* Run [f] as one operation: take its CPU time, the prover delta and the
   heap high-water mark, and collect its spans. *)
let measure ~traced ~op f =
  let p0 = Span.prover_now () in
  let c0 = Sys.time () in
  let r, spans, recording =
    Span.record ~traced ~op (fun () -> Span.span "op" f)
  in
  let t_dt = Sys.time () -. c0 in
  ( r,
    {
      t_dt;
      t_prover = Array.map2 ( - ) (Span.prover_now ()) p0;
      t_spans = spans;
      t_recording = recording;
      t_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    } )

(* ---- compile and lint ------------------------------------------- *)

(* [(lint, certify, fail_safe)] *)
let flags = function
  | Lint -> (true, false, false) (* what `repro lint` runs *)
  | _ -> (false, true, true) (* what `repro certify` and `table` run *)

let sum f l = List.fold_left (fun n (_, r) -> n + f r) 0 l

let compile_counts (c : P.compiled) prover =
  let f = float_of_int in
  let st = c.stats in
  let lint =
    let n g = f (sum g c.lint) in
    if c.lint = [] then []
    else
      Core.Memlint.
        [
          ( "lint.proved",
            n (fun r -> r.bounds_proved + r.races_proved + r.reuse_proved) );
          ( "lint.undecided",
            n (fun r ->
                r.bounds_undecided + r.races_undecided + r.reuse_undecided) );
          ("lint.errors", n (fun r -> List.length (errors r)));
          ("lint.warnings", n (fun r -> List.length (warnings r)));
          ("memlint.stms", n (fun r -> r.stms));
          ("memlint.annotations", n (fun r -> r.annotations));
        ]
  in
  let certs =
    let n g = f (sum g c.certs) in
    if c.certs = [] then []
    else
      Core.Certify.
        [
          ("obligations", n (fun r -> r.emitted));
          ("obligations_proved", n (fun r -> r.proved));
          ("obligations_concretized", n (fun r -> r.concretized));
        ]
  in
  Core.Shortcircuit.
    [
      ("circuits", f st.succeeded);
      ("shortcircuit.candidates", f st.candidates);
      ("shortcircuit.overlap_checks", f st.overlap_checks);
      ("reuse.size_proofs", f c.reuse_stats.size_proofs);
      ("pack.offset_proofs", f c.pack_stats.offset_proofs);
    ]
  @ certs @ lint @ prover_counts prover

let compile_failures (c : P.compiled) =
  List.map
    (fun (r : P.recovery) ->
      Printf.sprintf "%s fault in %s, fell back to %s"
        (Core.Fault.layer r.r_fault) r.r_pass r.r_fallback)
    c.recovery
  @ (match P.first_cert_failure c.certs with
    | Some (pass, ch) ->
        [ Fmt.str "refuted obligation in %s: %a" pass Core.Certify.pp_checked
            ch ]
    | None -> [])
  @
  match P.first_lint_error c.lint with
  | Some (stage, v) ->
      [ Fmt.str "lint error after %s: %a" stage Core.Memlint.pp_violation v ]
  | None -> []

let counters_summary (c : Device.counters) =
  Printf.sprintf "k%d r%h w%h f%h c%d/%h e%d a%d/%h ar%d s%d ph%d pm%d pk%h"
    c.kernels c.kernel_reads c.kernel_writes c.flops c.copies c.copy_bytes
    c.copies_elided c.allocs c.alloc_bytes c.arena_allocs c.scratch_allocs
    c.pool_hits c.pool_misses c.peak_bytes

(* What the drift guard compares between [Pipeline.compile] and the
   traced replay: pass statistics, per-pass certificate counts,
   per-stage lint counts, and the device counters of every variant
   executed in Full mode.  Printed IR is not comparable: fresh names
   differ between compiles. *)
let fingerprint (e : Corpus.entry) (c : P.compiled) =
  let b = Buffer.create 512 in
  let st = c.stats and rs = c.reuse_stats and ps = c.pack_stats in
  Printf.bprintf b
    "shortcircuit %d/%d checks %d rebased %d; reuse %d %d %d %d %d %d; pack \
     %d %d %d %d %d %d; dead %d %d %d; "
    st.succeeded st.candidates st.overlap_checks st.rebased_vars
    rs.candidates rs.coalesced rs.size_proofs rs.chain_links rs.rotated
    rs.hoisted ps.arenas ps.packed ps.unpacked ps.offset_proofs ps.holes
    ps.promoted c.dead_allocs c.reuse_dead_allocs c.pack_dead_allocs;
  List.iter
    (fun (pass, (r : Core.Certify.report)) ->
      Printf.bprintf b "cert %s %d %d %d %d; " pass r.emitted r.proved
        r.concretized r.failed)
    c.certs;
  (* Per lint stage, the number of checks of each kind but not their
     split between proved and undecided: NW's searches stop at the
     non-overlap test's 4 s CPU deadline, so that split can differ
     between two compiles of the same code. *)
  List.iter
    (fun (stage, (r : Core.Memlint.report)) ->
      Printf.bprintf b "lint %s %d %d %d %d %d %d %d; " stage r.stms
        r.annotations
        (r.bounds_proved + r.bounds_undecided)
        (r.races_proved + r.races_undecided)
        (r.reuse_proved + r.reuse_undecided)
        r.reuse_holes
        (List.length (Core.Memlint.errors r)))
    c.lint;
  let args = e.small_args () in
  List.iter
    (fun (v, p) ->
      let r = Exec.run ~mode:Exec.Full p args in
      Printf.bprintf b "%s %s; " v (counters_summary r.counters))
    [ ("unopt", c.unopt); ("opt", c.opt); ("reuse", c.reuse);
      ("pack", c.pack) ];
  Buffer.contents b

let compile_op kind ~traced ~fingerprinted (e : Corpus.entry) : sample =
  let lint, certify, fail_safe = flags kind in
  let c, t =
    measure ~traced
      ~op:(name kind ^ "/" ^ e.name)
      (fun () ->
        let p = Span.span "frontend" e.source in
        if traced then
          Span.span "pipeline" (fun () ->
              Replay.compile ~lint ~certify ~fail_safe p)
        else P.compile ~lint ~certify ~fail_safe p)
  in
  let failures = compile_failures c in
  {
    prog = e.name;
    dt = t.t_dt;
    parts = [ (e.name, t.t_dt) ];
    heap_words = t.t_heap_words;
    cal = nan;
    attempted = 1;
    failed = (if failures = [] then 0 else 1);
    failures;
    counts = compile_counts c t.t_prover;
    spans = t.t_spans;
    recording = t.t_recording;
    fingerprint = (if fingerprinted then fingerprint e c else "");
  }

(* ---- execute ---------------------------------------------------- *)

(* What set-up hands the execute workload: every program compiled once,
   with the counts the compile produced. *)
type compiled = {
  cname : string;
  csource : Ir.Ast.prog;
  variants : (string * Ir.Ast.prog) list;  (** unopt, opt, reuse, pack *)
  ccounts : (string * float) list;
}

let execute_op ~traced (e : Corpus.entry) (cp : compiled) : sample =
  let variant v = List.assoc v cp.variants in
  let failures = ref [] and counts = ref [] in
  let add k x =
    counts :=
      (k, x +. Option.value ~default:0. (List.assoc_opt k !counts))
      :: List.remove_assoc k !counts
  in
  let note_run (r : Exec.report) =
    add "exec.kernels" (float_of_int r.counters.kernels);
    add "exec.pool_hits" (float_of_int r.counters.pool_hits);
    add "exec.pool_misses" (float_of_int r.counters.pool_misses);
    failures := List.map Core.Fault.to_string r.faults @ !failures
  in
  (* cost-only runs of every variant at paper scale: the modeled device
     metrics *)
  let paper_scale (ds : Benchsuite.Runner.dataset) =
    let run v =
      let r =
        Span.span "exec.cost" (fun () ->
            Exec.run ~mode:Exec.Cost_only (variant v) ds.args)
      in
      note_run r;
      r.counters
    in
    let unopt = run "unopt" and opt = run "opt" in
    ignore (run "reuse");
    let pack = run "pack" in
    let ref_c =
      match ds.ref_counters with
      | Benchsuite.Runner.Static c -> c
      | From_opt f -> f opt
    in
    List.iter
      (fun dev ->
        let t = Device.time dev in
        add "device.log_speedup" (log (t unopt /. t pack));
        add "device.log_vs_ref" (log (t ref_c /. t pack));
        add "device.pairs" 1.)
      Benchsuite.Runner.devices;
    (* a variant that allocates nothing (NW's pack) has no peak to
       average; it is counted instead *)
    if pack.peak_bytes > 0. then begin
      add "device.log_peak_mb" (log (pack.peak_bytes /. 1e6));
      add "device.peak_datasets" 1.
    end
    else add "device.zero_peak_datasets" 1.;
    add "device_allocs" (float_of_int pack.allocs)
  in
  (* Full-mode runs at small size, checked against the reference
     interpreter, then one traced run cross-checked by memtrace *)
  let small_size () =
    let args = e.small_args () in
    let expect =
      Span.span "interp" (fun () -> Ir.Interp.run cp.csource args)
    in
    List.iter
      (fun (v, p) ->
        let r =
          Span.span "exec.full" (fun () -> Exec.run ~mode:Exec.Full p args)
        in
        note_run r;
        let same =
          try
            List.for_all2 (Ir.Value.approx_equal ~eps:1e-6) expect r.results
          with Invalid_argument _ -> false
        in
        if not same then
          failures := (v ^ " results differ from the interpreter") :: !failures)
      cp.variants;
    let r =
      Span.span "exec.full" (fun () ->
          Exec.run ~mode:Exec.Full ~trace:true ~variant:"pack" (variant "pack")
            args)
    in
    note_run r;
    match r.trace with
    | None -> failures := "traced run returned no trace" :: !failures
    | Some t ->
        let m = Span.span "memtrace" (fun () -> Core.Memtrace.check t) in
        List.iter
          (fun v ->
            failures :=
              Fmt.str "memtrace: %a" Core.Memtrace.pp_violation v :: !failures)
          m.violations
  in
  let (), t =
    measure ~traced ~op:("execute/" ^ e.name) (fun () ->
        List.iter paper_scale (e.datasets ());
        small_size ())
  in
  {
    prog = e.name;
    dt = t.t_dt;
    parts = [ (e.name, t.t_dt) ];
    heap_words = t.t_heap_words;
    cal = nan;
    attempted = 1;
    failed = (if !failures = [] then 0 else 1);
    failures = List.rev !failures;
    counts = cp.ccounts @ !counts;
    spans = t.t_spans;
    recording = t.t_recording;
    fingerprint = "";
  }

(* ---- chaos ------------------------------------------------------ *)

(* The campaign seed `repro chaos` uses by default.  It stays fixed: the
   injection sites decide how much of LUD's short-circuiting runs before
   an injected crash (across seeds 1-5 a campaign took 33-48 s), so a
   seed-dependent campaign would time the draw, not the code.  The run's seed still shuffles the program order. *)
let campaign_seed = 42

(* One campaign: [Chaosdrive.run ~rounds:1] per program, in one warm
   process, as `repro chaos all` runs it. *)
let chaos_op ~traced ~round (entries : Corpus.entry list) : sample =
  let module C = Benchsuite.Chaosdrive in
  let injections = ref [] and parts = ref [] in
  let (), t =
    measure ~traced ~op:(Printf.sprintf "chaos/%d" round) (fun () ->
        List.iter
          (fun (e : Corpus.entry) ->
            let t0 = Sys.time () in
            let c =
              Span.span ("chaos/" ^ e.name) (fun () ->
                  C.run ~seed:campaign_seed ~rounds:1
                    [ (e.name, e.source (), e.small_args ()) ])
            in
            parts := (e.name, Sys.time () -. t0) :: !parts;
            List.iter
              (fun (b : C.bench_campaign) ->
                List.iter
                  (fun i -> injections := (b.c_bench, i) :: !injections)
                  b.c_injections)
              c.benches)
          entries)
  in
  let inj = List.rev !injections in
  let count p = float_of_int (List.length (List.filter p inj)) in
  let failures =
    List.filter_map
      (fun (b, (i : C.injection)) ->
        if C.inj_ok i then None
        else
          Some
            (Printf.sprintf "%s %s/%s@%d: %s" b i.i_class i.i_pass i.i_site
               i.i_detail))
      inj
  in
  {
    prog = "corpus";
    dt = t.t_dt;
    parts = List.rev !parts;
    heap_words = t.t_heap_words;
    cal = nan;
    attempted = List.length inj;
    failed = List.length failures;
    failures;
    counts =
      [
        ("chaos.injections", count (fun _ -> true));
        ("chaos.fired", count (fun (_, i) -> i.C.i_fired));
        ("chaos.recovered", count (fun (_, i) -> i.C.i_fired && i.i_recovered));
      ]
      @ prover_counts t.t_prover;
    spans = t.t_spans;
    recording = t.t_recording;
    fingerprint = "";
  }

(* ---- set-up and rounds ------------------------------------------ *)

(* Set-up builds the corpus and validates it: every program must
   type-check and run under the reference interpreter at its small
   arguments, so a failing operation later is the system's fault, not
   a broken input.  Execute also compiles every program once (with the
   flags `repro table` uses), so its rounds measure execution alone.
   Set-up runs in a child like every operation, so each one starts as
   cold as the first.  It hands the compiled programs back marshalled:
   the parent holds one string its collector never scans, so the heap
   every child inherits stays that of a parent that compiled nothing,
   and each execute child unmarshals its own copy. *)
let setup kind (entries : Corpus.entry list) () : float * string =
  let t0 = Sys.time () in
  let compiled =
    List.filter_map
      (fun (e : Corpus.entry) ->
        let p = e.source () in
        Ir.Check.check_prog p;
        ignore (Ir.Interp.run p (e.small_args ()));
        ignore (e.datasets ());
        if kind <> Execute then None
        else
          let c = P.compile ~certify:true ~fail_safe:true p in
          Some
            {
              cname = e.name;
              csource = p;
              variants =
                [ ("unopt", c.unopt); ("opt", c.opt); ("reuse", c.reuse);
                  ("pack", c.pack) ];
              ccounts =
                [
                  ("circuits", float_of_int c.stats.succeeded);
                  ( "obligations_proved",
                    float_of_int (sum (fun r -> r.Core.Certify.proved) c.certs)
                  );
                ];
            })
      entries
  in
  let dt = Sys.time () -. t0 in
  (dt, Marshal.to_string (compiled : compiled list) [])

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One round over the corpus, in an order drawn from [rng]; each
   operation in its own child, calibrated by {!Calib.around}.  Only the
   rounds whose times are reported need [sampled]. *)
let round kind ~sampled ~traced ~fingerprinted ~round:r ~rng
    (entries : Corpus.entry list) (prepared : string) : sample list =
  let order = shuffle rng entries in
  let ops =
    match kind with
    | Compile | Lint ->
        List.map
          (fun (e : Corpus.entry) ->
            (e.name, fun () -> compile_op kind ~traced ~fingerprinted e))
          order
    | Execute ->
        List.map
          (fun (e : Corpus.entry) ->
            ( e.name,
              fun () ->
                let cps : compiled list = Marshal.from_string prepared 0 in
                match List.find_opt (fun c -> c.cname = e.name) cps with
                | None -> failed_sample e.name "not compiled in set-up"
                | Some cp -> execute_op ~traced e cp ))
          order
    | Chaos -> [ ("corpus", fun () -> chaos_op ~traced ~round:r order) ]
  in
  List.map2
    (fun (prog, _) (r, cal) ->
      match r with
      | Ok s -> { s with cal }
      | Error why -> failed_sample prog why)
    ops
    (Calib.around ~sampled (List.map snd ops))
