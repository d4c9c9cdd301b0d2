(* Table construction and rendering for the experiment harness.

   Each benchmark reproduces one of the paper's Tables I-VII: rows are
   (device, dataset), columns are the reference implementation's
   simulated time, each pipeline variant's performance *relative to
   the reference* (higher = faster, as in the paper), and the
   optimization impact (unoptimized time / optimized time).  The
   paper's published numbers ride along so every rendering shows
   measured-vs-paper side by side. *)

type row = {
  device : string;
  dataset : string;
  ref_ms : float; (* simulated reference time, milliseconds *)
  ms : (string * float) list;
      (* modeled time of each variant, milliseconds, in ladder order *)
  paper : (float * float * float * float) option;
      (* (ref ms, unopt x, opt x, impact) published in the paper *)
}

type t = {
  title : string; (* e.g. "Table I: NW performance" *)
  runs : int; (* the paper's repetition count, for the header *)
  rows : row list;
}

(* [times] are seconds per variant, in ladder order *)
let make_row ~device ~dataset ~ref_time ~times ~paper =
  {
    device;
    dataset;
    ref_ms = ref_time *. 1e3;
    ms = List.map (fun (v, t) -> (v, t *. 1e3)) times;
    paper;
  }

(* Variant [v]'s performance relative to the reference (higher =
   faster, as in the paper), and its impact: the unoptimized time over
   its own (the paper's column is [impact r "opt"]). *)
let rel r v = r.ref_ms /. List.assoc v r.ms
let impact r v = List.assoc "unopt" r.ms /. List.assoc v r.ms

let pp ppf (t : t) =
  Fmt.pf ppf "%s (%d runs)@." t.title t.runs;
  Fmt.pf ppf "%-6s %-9s | %10s %8s %8s %8s %8s %8s | %s@." "Device" "Dataset"
    "Ref." "Unopt." "Opt." "Reuse" "Pack" "Impact"
    "Paper (Ref/Unopt/Opt/Impact)";
  Fmt.pf ppf "%s@." (String.make 117 '-');
  List.iter
    (fun r ->
      let paper =
        match r.paper with
        | Some (rm, u, o, i) ->
            Printf.sprintf "%gms / %.2fx / %.2fx / %.2fx" rm u o i
        | None -> "-"
      in
      Fmt.pf ppf "%-6s %-9s | %8.2fms" r.device r.dataset r.ref_ms;
      List.iter (fun (v, _) -> Fmt.pf ppf " %7.2fx" (rel r v)) r.ms;
      Fmt.pf ppf " %7.2fx | %s@." (impact r "opt") paper)
    t.rows

let to_string t = Fmt.str "%a" pp t

(* The table as EXPERIMENTS.md prints it: the paper's three relative
   columns (unoptimized, short-circuited, impact) next to the published
   ones.  CI diffs the committed tables against this rendering. *)
let pp_markdown ppf (t : t) =
  let time ms =
    if ms >= 1000. then Printf.sprintf "%.3g s" (ms /. 1000.)
    else Printf.sprintf "%.3g ms" ms
  in
  Fmt.pf ppf "## %s (%d runs)@.@." t.title t.runs;
  Fmt.pf ppf
    "| Device | Dataset | Ref. (ours) | Unopt/Opt/Impact (ours) | Ref. \
     (paper) | Unopt/Opt/Impact (paper) |@.";
  Fmt.pf ppf "|---|---|---|---|---|---|@.";
  List.iter
    (fun r ->
      let paper =
        match r.paper with
        | Some (rm, u, o, i) ->
            Printf.sprintf "%s | %.2fx / %.2fx / %.2fx" (time rm) u o i
        | None -> "- | -"
      in
      Fmt.pf ppf "| %s | %s | %s | %.2fx / %.2fx / **%.2fx** | %s |@."
        r.device r.dataset (time r.ref_ms) (rel r "unopt") (rel r "opt")
        (impact r "opt") paper)
    t.rows;
  Fmt.pf ppf "@."

(* The ablation of the short-circuiting analysis, as EXPERIMENTS.md
   prints it: the circuit points of each of [progs] that still rebase
   with the Fig. 8 dimension splitting (the plain Hoeflinger condition
   without it) and the per-iteration and per-thread refinements of
   section V-B disabled, one and then both at a time, each out of the
   points the full analysis examines. *)
let pp_ablation ppf progs =
  let full = Core.Shortcircuit.default_options in
  let configs =
    [
      full;
      { full with split_depth = 0 };
      { full with enable_refinement = false };
      { full with split_depth = 0; enable_refinement = false };
    ]
  in
  let circuits prog options =
    let st = (Core.Pipeline.compile ~options prog).stats in
    (st.succeeded, st.candidates)
  in
  Fmt.pf ppf "## Ablation (design choices of sections V-B/V-C)@.@.";
  Fmt.pf ppf
    "| Benchmark | full | no dim splitting | no refinement | neither |@.";
  Fmt.pf ppf "|---|---|---|---|---|@.";
  List.iter
    (fun (name, prog) ->
      let counts = List.map (circuits prog) configs in
      let cell (k, _) = Printf.sprintf "%d/%d" k (snd (List.hd counts)) in
      Fmt.pf ppf "| %-7s | %s |@." name
        (String.concat " | " (List.map cell counts)))
    progs;
  Fmt.pf ppf "@."

(* Shape checks used by the test-suite: the qualitative claims of the
   paper's evaluation that must survive the simulation substitution. *)
let impacts t = List.map (fun r -> impact r "opt") t.rows

let min_impact t = List.fold_left Float.min infinity (impacts t)
let max_impact t = List.fold_left Float.max neg_infinity (impacts t)
