(* The end-to-end benchmark.

     e2e.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                 [--programs P,...] [-o FILE] [--spans FILE]
     e2e.exe trace [same options]              (run --trace 1)
     e2e.exe compare A.jsonl... -- B.jsonl...

   [run] drives one workload (all four without --workload) as a closed
   loop for S seconds, set-up included, prints every metric by name
   with its unit and sample count, and ends with one JSON result line.
   With --trace 1 it instead runs one traced round of the workload
   (preceded, for compile and lint, by the untraced round the drift
   guard compares it with) and reports per-layer metrics.  See
   bench/e2e/README.md. *)

module W = Workload

(* ---- results ---------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string; n : int }

type result = {
  workload : string;
  seed : int;
  seconds : float;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : metric list;
  counts : (string * float list) list;  (** one value per round *)
  round_times : float list;
      (** wall time of each round, calibration included *)
  op_times : (string * float list) list;
      (** per program, its scaled operation times: the samples behind
          round_s *)
  setup_times : float list;  (** the samples behind setup_s, scaled *)
  cal_times : float list;  (** every calibration pair's mean *)
}

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* Recorded sample times keep microseconds, not every digit. *)
let time x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"
let nums ?(f = num) xs = String.concat ", " (List.map f xs)

(* The full record [-o] appends and [compare] reads. *)
let record_json (r : result) =
  let metric m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\", \"n\": %d}"
      m.mname (num m.value) m.unit_ m.n
  in
  let series ?f l =
    String.concat ", "
      (List.map (fun (k, vs) -> Printf.sprintf "\"%s\": [%s]" k (nums ?f vs)) l)
  in
  Printf.sprintf
    "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %s, \"attempted\": \
     %d, \"failed\": %d, \"metrics\": {%s}, \"counts\": {%s}, \
     \"round_times\": [%s], \"op_times\": {%s}, \"setup_times\": [%s], \
     \"cal_times\": [%s]}"
    r.workload r.seed (num r.seconds) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
    (series r.counts) (nums ~f:time r.round_times) (series ~f:time r.op_times)
    (nums ~f:time r.setup_times) (nums ~f:time r.cal_times)

(* The last line of a run, the result BENCHMARK.json describes: [names]
   selects the metrics it carries. *)
let result_line ~names (r : result) =
  let metric m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.mname
      (num m.value) m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map metric (List.filter (fun m -> names m.mname) r.metrics)))

let print_result (r : result) =
  Printf.printf "== %s: %d attempted, %d failed (seed %d)\n" r.workload
    r.attempted r.failed r.seed;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.failures;
  List.iter
    (fun m ->
      Printf.printf "  %-38s %14.6g %-6s n=%d\n" m.mname m.value m.unit_ m.n)
    r.metrics;
  if r.round_times <> [] then begin
    let q1, q3 = Metric.quartiles r.round_times in
    Printf.printf
      "  unscaled round wall times: median %.6g s, quartiles %.6g / %.6g s\n"
      (Metric.median r.round_times) q1 q3;
    Printf.printf
      "  calibration kernel: median %.6g s (reference %g s), %d samples\n"
      (Metric.median r.cal_times) Calib.ref_s (List.length r.cal_times)
  end;
  if r.counts <> [] then begin
    Printf.printf "  repeatability of counts over %d round(s):\n"
      (List.length r.round_times);
    List.iter
      (fun (k, vs) ->
        let lo = List.fold_left Float.min infinity vs
        and hi = List.fold_left Float.max neg_infinity vs in
        if lo = hi then Printf.printf "    %-36s %14.10g  repeated\n" k lo
        else
          Printf.printf "    %-36s %g..%g  NOT repeated (not claimable)\n" k
            lo hi)
      r.counts
  end

(* ---- helpers over samples --------------------------------------- *)

let entries kind programs =
  List.filter
    (fun (e : Corpus.entry) ->
      match programs with None -> true | Some ps -> List.mem e.name ps)
    (W.corpus kind)

let sum_counts (cs : (string * float) list list) =
  List.fold_left
    (List.fold_left (fun acc (k, x) ->
         (k, x +. Option.value ~default:0. (List.assoc_opt k acc))
         :: List.remove_assoc k acc))
    [] cs
  |> List.sort compare

(* Summed in program order, so that float sums repeat whatever order
   the round ran in. *)
let counts_of (ss : W.sample list) =
  List.sort (fun a b -> compare a.W.prog b.W.prog) ss
  |> List.map (fun s -> s.W.counts)
  |> sum_counts

let get k counts = Option.value ~default:0. (List.assoc_opt k counts)

(* a / (a + b), and 0 when there was nothing to count *)
let share a b = if a +. b = 0. then 0. else a /. (a +. b)

let total f (ss : W.sample list) = List.fold_left (fun t s -> t + f s) 0 ss

let total_dt (ss : W.sample list) =
  List.fold_left (fun t s -> t +. s.W.dt) 0. ss

let failures_of (ss : W.sample list) =
  List.concat_map
    (fun s -> List.map (fun f -> s.W.prog ^ ": " ^ f) s.W.failures)
    ss

let mk mname value n =
  let unit_ = match Metric.find mname with Some d -> d.unit_ | None -> "" in
  { mname; value; unit_; n }

(* The workload-specific end-to-end metrics, from one round's counts. *)
let round_metrics kind c =
  match kind with
  | W.Compile ->
      [ ("circuits", get "circuits" c);
        ("obligations_proved", get "obligations_proved" c) ]
  | W.Lint ->
      [ ("circuits", get "circuits" c);
        ( "lint_decided_ratio",
          share (get "lint.proved" c) (get "lint.undecided" c) ) ]
  | W.Execute ->
      let g k n = Metric.geomean_of_logs ~sum:(get k c) ~n:(get n c) in
      (* circuits and obligations come from set-up's one compile *)
      [ ("circuits", get "circuits" c);
        ("obligations_proved", get "obligations_proved" c);
        ("device_speedup", g "device.log_speedup" "device.pairs");
        ("device_vs_ref", g "device.log_vs_ref" "device.pairs");
        ("device_peak_mb", g "device.log_peak_mb" "device.peak_datasets");
        ("device_allocs", get "device_allocs" c) ]
  | W.Chaos -> []

(* ---- one untraced workload -------------------------------------- *)

(* Set-up is repeated in fresh children, each calibrated like an
   operation, and reported as the median scaled time.  It counts against the
   workload's time budget. *)
let setup_trials = 3

let rng_for kind seed =
  Random.State.make [| seed; Hashtbl.hash (W.name kind) |]

let run_workload kind ~seed ~seconds ~programs : result =
  let entries = entries kind programs in
  let t_start = Span.now () in
  let setups =
    Calib.around ~sampled:true
      (List.init setup_trials (fun _ -> W.setup kind entries))
  in
  let setup_times =
    List.filter_map
      (function
        | Ok (dt, _), cal -> Some (Calib.scale ~cal dt) | Error _, _ -> None)
      setups
  in
  let prepared =
    List.fold_left
      (fun p -> function Ok (_, c), _ -> c | Error _, _ -> p)
      "" setups
  in
  let setup_failures =
    List.filter_map
      (function Error why, _ -> Some ("set-up: " ^ why) | Ok _, _ -> None)
      setups
  in
  let setup_cals = List.map snd setups in
  let rng = rng_for kind seed in
  (* closed loop: start another round only if one more fits in the
     time left, judged by the median round so far; the first always
     runs *)
  let rec loop r walls acc =
    let t0 = Span.now () in
    let samples =
      W.round kind ~sampled:true ~traced:false ~fingerprinted:false ~round:r
        ~rng entries prepared
    in
    let walls = (Span.now () -. t0) :: walls and acc = samples :: acc in
    if Span.now () -. t_start +. Metric.median walls <= seconds then
      loop (r + 1) walls acc
    else (List.rev acc, List.rev walls)
  in
  let rounds, walls = loop 1 [] [] in
  let all = List.concat rounds and nr = List.length rounds in
  let per_round = List.map counts_of rounds in
  let attempted =
    total (fun s -> s.W.attempted) all + List.length setup_failures
  and failed = total (fun s -> s.W.failed) all + List.length setup_failures in
  (* the largest heap of any child: the compiler's high-water mark *)
  let peak_heap_mb =
    let words = List.fold_left (fun m s -> max m s.W.heap_words) 0 all in
    float_of_int (words * (Sys.word_size / 8)) /. 1e6
  in
  let specific =
    let rm = List.map (round_metrics kind) per_round in
    List.map
      (fun (k, _) -> mk k (Metric.median (List.map (List.assoc k) rm)) nr)
      (match rm with r :: _ -> r | [] -> [])
  in
  let keys =
    List.sort_uniq compare (List.concat_map (List.map fst) per_round)
  in
  let op_times =
    List.filter_map
      (fun (e : Corpus.entry) ->
        let part s =
          Option.map (Calib.scale ~cal:s.W.cal)
            (List.assoc_opt e.name s.W.parts)
        in
        let ts = List.filter_map part all in
        if ts = [] then None else Some (e.name, ts))
      entries
  in
  (* round_s: one pass over the corpus with every program at its median
     scaled time *)
  let round_s =
    List.fold_left (fun t (_, ts) -> t +. Metric.median ts) 0. op_times
  in
  {
    workload = W.name kind;
    seed;
    seconds;
    attempted;
    failed;
    failures = setup_failures @ failures_of all;
    metrics =
      [
        mk "round_s" round_s nr;
        mk "setup_s" (Metric.median setup_times) (List.length setup_times);
        mk "peak_heap_mb" peak_heap_mb (List.length all);
        mk "fail_ratio"
          (float_of_int failed /. float_of_int (max 1 attempted))
          attempted;
      ]
      @ specific;
    counts = List.map (fun k -> (k, List.map (get k) per_round)) keys;
    round_times = walls;
    op_times;
    setup_times;
    cal_times = setup_cals @ List.map (fun s -> s.W.cal) all;
  }

(* ---- the traced run --------------------------------------------- *)

let passes =
  [ "frontend"; "memintro"; "hoist"; "lastuse"; "shortcircuit"; "cleanup";
    "reuse"; "pack" ]

let stages =
  [ "memintro"; "hoist"; "lastuse"; "shortcircuit"; "cleanup"; "reuse";
    "pack" ]

let prog_names kind =
  List.map (fun (e : Corpus.entry) -> e.name) (W.corpus kind)

(* The program an operation's span belongs to: labels read
   "<workload>/<program>". *)
let prog_of (s : Span.t) =
  match String.index_opt s.op '/' with
  | Some i -> String.sub s.op (i + 1) (String.length s.op - i - 1)
  | None -> ""

(* The per-layer metrics of a traced round, named [<layer>.<metric>].
   Every workload reports the same set, and a layer the workload does
   not reach reads 0.  Per-program splits are suffixed [.<program>], over
   the corpus of the workload the layer serves.  The tracing overhead is
   the traced round's time over that time less the time spent recording
   spans: comparing with a separate untraced round would bury an
   overhead of well under 1% in the host's run-to-run noise. *)
let layer_metrics traced =
  let n = List.length traced in
  let selfs = Span.self_times (List.concat_map (fun s -> s.W.spans) traced) in
  let c = counts_of traced in
  let m mname value unit_ n = { mname; value; unit_; n } in
  let time name pred =
    let hits = List.filter (fun (s, _) -> pred s) selfs in
    m name
      (List.fold_left (fun t (_, d) -> t +. d) 0. hits)
      "s" (List.length hits)
  in
  let named x (s : Span.t) = s.name = x in
  let under p (s : Span.t) = String.starts_with ~prefix:p s.name in
  let count name = m name (get name c) "count" n in
  (* hits / (hits + misses) *)
  let ratio name hits misses =
    m name (share (get hits c) (get misses c)) "ratio" n
  in
  let per_prog name kind pred =
    List.map
      (fun p -> time (name ^ "." ^ p) (fun s -> pred s && prog_of s = p))
      (prog_names kind)
  in
  let circuits = get "circuits" c in
  let busy = total_dt traced
  and recording = List.fold_left (fun t s -> t +. s.W.recording) 0. traced in
  [ m "trace.overhead_ratio" (busy /. (busy -. recording)) "ratio" n;
    count "prover.nonneg_misses";
    ratio "prover.nonneg_hit_ratio" "prover.nonneg_hits"
      "prover.nonneg_misses";
    count "prover.sat_misses";
    count "prover.budget_exhausted" ]
  @ List.map (fun p -> time (p ^ ".s") (named p)) passes
  @ [ time "pipeline.unattributed_s" (named "pipeline");
      count "shortcircuit.overlap_checks";
      m "shortcircuit.succeeded_ratio"
        (share circuits (get "shortcircuit.candidates" c -. circuits))
        "ratio" n;
      count "reuse.size_proofs";
      count "pack.offset_proofs" ]
  @ per_prog "shortcircuit.s" W.Compile (named "shortcircuit")
  @ [ time "memlint.s" (under "memlint/");
      count "memlint.stms";
      count "memlint.annotations" ]
  @ List.map
      (fun st -> time ("memlint.s." ^ st) (named ("memlint/" ^ st)))
      stages
  @ per_prog "memlint.s" W.Lint (under "memlint/")
  @ [ time "certify.s" (under "certify/");
      m "certify.obligations" (get "obligations" c) "count" n;
      time "exec.cost_s" (named "exec.cost");
      time "exec.full_s" (named "exec.full");
      count "exec.kernels";
      ratio "exec.pool_hit_ratio" "exec.pool_hits" "exec.pool_misses";
      time "interp.s" (named "interp");
      time "memtrace.s" (named "memtrace") ]
  @ List.map
      (fun p -> time ("chaos.s." ^ p) (named ("chaos/" ^ p)))
      (prog_names W.Chaos)
  @ [ count "chaos.fired"; count "chaos.recovered" ]

(* The drift guard: the replay must reproduce what [Pipeline.compile]
   computed for every program.  Reports the first differing field. *)
let drift ~untraced ~traced =
  List.filter_map
    (fun (u : W.sample) ->
      match List.find_opt (fun t -> t.W.prog = u.prog) traced with
      | Some t when u.fingerprint <> t.W.fingerprint ->
          let rec first = function
            | a :: x, b :: y -> if a = b then first (x, y) else (a, b)
            | a :: _, [] -> (a, "")
            | [], b :: _ -> ("", b)
            | [], [] -> ("", "")
          in
          let a, b =
            first
              ( String.split_on_char ';' u.fingerprint,
                String.split_on_char ';' t.W.fingerprint )
          in
          Some
            (Printf.sprintf "%s: pipeline [%s] vs replay [%s]" u.prog
               (String.trim a) (String.trim b))
      | _ -> None)
    untraced

(* One traced round of a workload, after, for compile and lint, the
   untraced round the drift guard compares it with.  Returns the result,
   whose failures include every drifted program (its per-layer numbers
   would describe another program), the spans, and whether anything
   drifted. *)
let run_traced kind ~seed ~programs : result * Span.t list * bool =
  let entries = entries kind programs in
  let setup = Child.run (W.setup kind entries) in
  let prepared = match setup with Ok (_, c) -> c | Error _ -> "" in
  let setup_failed =
    match setup with Ok _ -> [] | Error why -> [ "set-up: " ^ why ]
  in
  let rng = rng_for kind seed in
  let fingerprinted = kind = W.Compile || kind = W.Lint in
  let round r traced =
    W.round kind ~sampled:false ~traced ~fingerprinted ~round:r ~rng entries
      prepared
  in
  let untraced = if fingerprinted then round 1 false else [] in
  let traced = round 2 true in
  let samples = untraced @ traced in
  let drifted =
    List.map (fun d -> "DRIFT " ^ d) (drift ~untraced ~traced)
  in
  let failures = setup_failed @ drifted in
  ( {
      workload = W.name kind;
      seed;
      seconds = 0.;
      attempted = total (fun s -> s.W.attempted) samples + List.length failures;
      failed = total (fun s -> s.W.failed) samples + List.length failures;
      failures = failures @ failures_of samples;
      metrics = layer_metrics traced;
      counts = [];
      round_times = [];
      op_times = [];
      setup_times = [];
      cal_times = [];
    },
    List.concat_map (fun s -> s.W.spans) traced,
    drifted <> [] )

(* ---- command line ----------------------------------------------- *)

let usage =
  "usage: e2e.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
   [--programs P,...] [-o FILE] [--spans FILE]\n\
  \       e2e.exe trace [options as for run]\n\
  \       e2e.exe compare A.jsonl... -- B.jsonl..."

let run_cmd ~trace argv =
  let workload = ref None and seed = ref 1 and seconds = ref 12.
  and trace = ref trace and programs = ref None and out = ref None
  and spans = ref (Filename.concat "_build" "e2e-spans.json") in
  let spec =
    [
      ( "--workload",
        Arg.Symbol
          ( List.map fst W.kinds,
            fun w -> workload := Some (List.assoc w W.kinds) ),
        " one workload (default: all four)" );
      ("--seed", Arg.Set_int seed, "N seed for the program order");
      ("--seconds", Arg.Set_float seconds, "S time budget per workload");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 per-layer traced run" );
      ( "--programs",
        Arg.String (fun s -> programs := Some (String.split_on_char ',' s)),
        "P,... restrict the corpus" );
      ("-o", Arg.String (fun f -> out := Some f), "FILE append result records");
      ( "--spans",
        Arg.Set_string spans,
        "FILE where the traced run writes spans" );
    ]
  in
  Arg.parse_argv ~current:(ref 1) argv spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  Option.iter
    (List.iter (fun p ->
         if not (List.mem p Corpus.names) then
           raise (Arg.Bad ("unknown program " ^ p))))
    !programs;
  let emit ~names r =
    print_result r;
    Option.iter
      (fun f ->
        Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 f
          (fun oc -> output_string oc (record_json r ^ "\n")))
      !out;
    print_endline (result_line ~names r)
  in
  let kinds =
    match !workload with Some k -> [ k ] | None -> List.map snd W.kinds
  in
  if !trace then begin
    let runs =
      List.map
        (fun kind -> run_traced kind ~seed:!seed ~programs:!programs)
        kinds
    in
    let dir = Filename.dirname !spans in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Out_channel.with_open_bin !spans (fun oc ->
        output_string oc
          (Span.to_json (List.concat_map (fun (_, s, _) -> s) runs)));
    List.iter (fun (r, _, _) -> emit ~names:(fun _ -> true) r) runs;
    if List.exists (fun (_, _, drifted) -> drifted) runs then exit 1
  end
  else
    List.iter
      (fun kind ->
        emit
          ~names:(fun n -> List.mem n Metric.listed)
          (run_workload kind ~seed:!seed ~seconds:!seconds
             ~programs:!programs))
      kinds

let () =
  let argv = Sys.argv in
  try
    match if Array.length argv > 1 then argv.(1) else "" with
    | "run" -> run_cmd ~trace:false argv
    | "trace" -> run_cmd ~trace:true argv
    | "compare" -> exit (Compare.main (List.tl (List.tl (Array.to_list argv))))
    | _ ->
        prerr_endline usage;
        exit 2
  with Arg.Bad msg | Arg.Help msg ->
    prerr_endline msg;
    exit 2
