(* The gates over the suite's JSON records, and the JSON reader
   they use, re-exported from Core.Json (the one JSON value the suite
   prints and parses).

   The bench-trajectory gate compares a freshly emitted BENCH.json
   against a committed baseline (bench/baseline.json):

   - per (benchmark, device, dataset) row, each modeled time
     (unopt/opt/reuse/pack) may not exceed the baseline by more than the
     relative tolerance - times are simulated, so drift only comes
     from code changes, and the tolerance only absorbs intentional
     cost-model adjustments;
   - per (benchmark, dataset, variant) footprint, the allocation count,
     peak live bytes and modeled DRAM traffic must be monotone
     non-increasing - these are exact counters, so any increase is a
     regression by definition;
   - a capped pool's high-water mark must not exceed its cap (checked
     on the current record alone - the cap is a costed constraint);
   - the prover's nonnegativity, saturation and verdict memo misses
     (its searches) may not exceed the baseline by more than the
     tolerance;
   - a benchmark present in the baseline must stay present, and so
     must every gated field it holds: a row time, a variant's
     footprint or one of its counters, a pack_stats counter or a
     prover count missing from the current record is a regression.

   Improvements beyond tolerance, fewer prover misses and new
   benchmarks are reported as notes (a prompt to refresh the
   baseline), never as failures. *)

include Core.Json

(* ---------------------------------------------------------------- *)
(* The gate                                                          *)
(* ---------------------------------------------------------------- *)

type gate = {
  regressions : string list; (* hard failures: exit nonzero *)
  notes : string list; (* informational: improvements, new benchmarks *)
  checked : int; (* individual comparisons performed *)
}

let tolerance = 0.05

(* field [k] of object [v] as a list ([] when absent) or a string
   ("?" when absent) *)
let list_at k v = Option.value ~default:[] (Option.bind (member k v) arr)
let str_at k v = Option.value ~default:"?" (Option.bind (member k v) str)
let benchmarks_of = list_at "benchmarks"
let name_of = str_at "name"

(* footprint fields per variant, time fields per row: every variant
   of the pipeline's ladder *)
let fp_variants = Core.Pipeline.variant_names
let row_times = List.map (fun v -> v ^ "_ms") fp_variants
let fp_monotone = [ "allocs"; "peak_bytes"; "traffic_bytes" ]

(* packing-pass counters: arenas, packed placements and certified
   lifetime holes may only grow, unpacked (undecidable) placements may
   only shrink - the planner must not silently lose coverage *)
let pack_grow = [ "arenas"; "packed"; "holes" ]
let pack_shrink = [ "unpacked" ]

(* the prover's work over the whole suite: a miss is a goal, a
   context or a non-overlap question decided afresh, and the counts
   repeat exactly from run to run, so a rise beyond the tolerance means
   searches the prover used to avoid are back - a regression no timing
   noise can hide *)
let prover_work = [ "nonneg_misses"; "sat_misses"; "verdict_misses" ]

let gate ~(baseline : t) ~(current : t) : gate =
  let regressions = ref [] in
  let notes = ref [] in
  let checked = ref 0 in
  let reg fmt = Printf.ksprintf (fun m -> regressions := m :: !regressions) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  (* One gated value [what]: compared by [k] when both records hold
     it, a regression when the current record lost it, skipped when
     the baseline never had it. *)
  let gated what b c k =
    match (b, c) with
    | Some b, Some c ->
        incr checked;
        k b c
    | Some _, None ->
        incr checked;
        reg "%s missing from current run" what
    | None, _ -> ()
  in
  (* an exact counter that may not move in the direction [worse] *)
  let counter what ~worse b c =
    let dir x y = if x > y then "grew" else "shrank" in
    if worse c b then reg "%s %s %s -> %s" what (dir c b) (number b) (number c)
    else if c <> b then
      note "%s %s %s -> %s - consider refreshing the baseline" what (dir c b)
        (number b) (number c)
  in
  let base_b = benchmarks_of baseline and cur_b = benchmarks_of current in
  let find name l = List.find_opt (fun b -> name_of b = name) l in
  List.iter
    (fun bb ->
      let bname = name_of bb in
      match find bname cur_b with
      | None -> reg "%s: benchmark present in baseline but missing from current run" bname
      | Some cb ->
          (* rows: modeled times within tolerance *)
          let rows = list_at "rows" in
          let row_key r = (str_at "device" r, str_at "dataset" r) in
          List.iter
            (fun br ->
              let dev, ds = row_key br in
              match
                List.find_opt (fun cr -> row_key cr = (dev, ds)) (rows cb)
              with
              | None ->
                  reg "%s [%s/%s]: row missing from current run" bname dev ds
              | Some cr ->
                  List.iter
                    (fun field ->
                      gated
                        (Printf.sprintf "%s [%s/%s]: %s" bname dev ds field)
                        (num_at [ field ] br) (num_at [ field ] cr)
                        (fun b c ->
                          let rel = if b > 0. then (c -. b) /. b else 0. in
                          if rel > tolerance then
                            reg
                              "%s [%s/%s]: %s %.4g -> %.4g ms (%+.1f%%, \
                               tolerance %.1f%%)"
                              bname dev ds field b c (100. *. rel)
                              (100. *. tolerance)
                          else if rel < -.tolerance then
                            note
                              "%s [%s/%s]: %s improved %.4g -> %.4g ms \
                               (%+.1f%%) - consider refreshing the baseline"
                              bname dev ds field b c (100. *. rel)))
                    row_times)
            (rows bb);
          (* footprints: allocs, peak and traffic monotone
             non-increasing *)
          let fps = list_at "footprints" and ds_of = str_at "dataset" in
          List.iter
            (fun bf ->
              let ds = ds_of bf in
              match List.find_opt (fun cf -> ds_of cf = ds) (fps cb) with
              | None ->
                  reg "%s [%s]: footprint missing from current run" bname ds
              | Some cf ->
                  List.iter
                    (fun variant ->
                      let what =
                        Printf.sprintf "%s [%s] %s:" bname ds variant
                      in
                      (match (member variant bf, member variant cf) with
                      | Some bv, Some cv ->
                          List.iter
                            (fun field ->
                              let what = what ^ " " ^ field in
                              gated what (num_at [ field ] bv)
                                (num_at [ field ] cv)
                                (counter what ~worse:( > )))
                            fp_monotone
                      | Some _, None ->
                          incr checked;
                          reg "%s footprint missing from current run" what
                      | None, _ -> ());
                      (* a capped pool's high-water mark must respect
                         the cap: the cap is a costed constraint, not a
                         hint, so any breach is a hard failure of the
                         current record regardless of the baseline *)
                      match
                        ( num_at [ variant; "pool"; "high_water_bytes" ] cf,
                          num_at [ variant; "pool"; "cap" ] cf )
                      with
                      | Some hw, Some cap ->
                          incr checked;
                          if hw > cap then
                            reg
                              "%s [%s] %s: pool high-water %s exceeds cap %s"
                              bname ds variant (number hw) (number cap)
                      | _ -> ())
                    fp_variants)
            (fps bb);
          (* packing coverage: the planner may not lose ground - fewer
             arenas or packed placements, or more undecidable ones,
             means previously provable offsets stopped proving *)
          let pack_stat worse field =
            let what = Printf.sprintf "%s: pack_stats.%s" bname field in
            gated what
              (num_at [ "pack_stats"; field ] bb)
              (num_at [ "pack_stats"; field ] cb)
              (counter what ~worse)
          in
          List.iter (pack_stat ( < )) pack_grow;
          List.iter (pack_stat ( > )) pack_shrink)
    base_b;
  List.iter
    (fun cb ->
      let cname = name_of cb in
      if find cname base_b = None then
        note "%s: new benchmark not in baseline - refresh to start gating it"
          cname)
    cur_b;
  List.iter
    (fun field ->
      gated ("prover." ^ field)
        (num_at [ "prover"; field ] baseline)
        (num_at [ "prover"; field ] current)
        (fun b c ->
          if c > b *. (1. +. tolerance) then
            reg "prover.%s %s -> %s (%+.1f%%, tolerance %.1f%%)" field
              (number b) (number c)
              (100. *. (c -. b) /. b)
              (100. *. tolerance)
          else if c < b then
            note "prover.%s fell %s -> %s - consider refreshing the baseline"
              field (number b) (number c)))
    prover_work;
  {
    regressions = List.rev !regressions;
    notes = List.rev !notes;
    checked = !checked;
  }

(* ---------------------------------------------------------------- *)
(* The certificate gate                                               *)
(* ---------------------------------------------------------------- *)

(* Compares a freshly emitted combined certificate document ([repro
   certify all --json]) against a committed baseline
   (bench/certs-baseline.json).  Certificates are exact - every
   obligation either re-proves or it does not - so there is no
   tolerance: any lost ground is a regression.

   Per (benchmark, pass, obligation id):

   - a benchmark, pass, or obligation present in the baseline must
     stay present;
   - an obligation's verdict may not weaken (proved > concretized >
     failed);
   - a pass's emitted and proved counts may not decrease (the passes
     must keep justifying at least as many rewrites as before), and a
     count the baseline holds may not go missing;
   - any failed obligation in the current run is a regression
     outright, baseline or not.

   Strengthened verdicts, new obligations, new passes and new
   benchmarks are notes - a prompt to refresh the baseline. *)

let verdict_rank = function
  | "proved" -> 2
  | "concretized" -> 1
  | _ -> 0 (* failed, or anything unrecognized *)

let cert_gate ~(baseline : t) ~(current : t) : gate =
  let regressions = ref [] in
  let notes = ref [] in
  let checked = ref 0 in
  let reg fmt = Printf.ksprintf (fun m -> regressions := m :: !regressions) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let passes = list_at "passes" and pass_name = str_at "pass" in
  let obls = list_at "obligations" in
  let obl_id o = Option.bind (member "id" o) num in
  let obl_verdict = str_at "verdict" and obl_rewrite = str_at "rewrite" in
  let base_b = benchmarks_of baseline and cur_b = benchmarks_of current in
  let find name l = List.find_opt (fun b -> name_of b = name) l in
  (* any current failure is a hard failure, gated or not *)
  List.iter
    (fun cb ->
      List.iter
        (fun cp ->
          List.iter
            (fun o ->
              if obl_verdict o = "failed" then
                reg "%s/%s: obligation #%g (%s) FAILED in the current run"
                  (name_of cb) (pass_name cp)
                  (Option.value ~default:(-1.) (obl_id o))
                  (obl_rewrite o))
            (obls cp))
        (passes cb))
    cur_b;
  List.iter
    (fun bb ->
      let bname = name_of bb in
      match find bname cur_b with
      | None ->
          reg "%s: benchmark present in baseline but missing from current run"
            bname
      | Some cb ->
          List.iter
            (fun bp ->
              let pname = pass_name bp in
              match
                List.find_opt (fun cp -> pass_name cp = pname) (passes cb)
              with
              | None ->
                  reg "%s: pass %s present in baseline but missing from \
                       current run"
                    bname pname
              | Some cp ->
                  (* aggregate counts: emitted and proved must not drop,
                     nor go missing *)
                  List.iter
                    (fun field ->
                      match (num_at [ field ] bp, num_at [ field ] cp) with
                      | Some b, Some c ->
                          incr checked;
                          if c < b then
                            reg "%s/%s: %s count dropped %g -> %g" bname pname
                              field b c
                          else if c > b then
                            note
                              "%s/%s: %s count grew %g -> %g - consider \
                               refreshing the baseline"
                              bname pname field b c
                      | Some _, None ->
                          incr checked;
                          reg "%s/%s: %s count missing from current run" bname
                            pname field
                      | None, _ -> ())
                    [ "emitted"; "proved" ];
                  (* per-obligation verdicts, matched by id *)
                  let cur_obls = obls cp in
                  List.iter
                    (fun bo ->
                      match obl_id bo with
                      | None -> ()
                      | Some id -> (
                          match
                            List.find_opt (fun co -> obl_id co = Some id)
                              cur_obls
                          with
                          | None ->
                              reg
                                "%s/%s: obligation #%g (%s) disappeared from \
                                 the current run"
                                bname pname id (obl_rewrite bo)
                          | Some co ->
                              incr checked;
                              let bv = obl_verdict bo and cv = obl_verdict co in
                              if verdict_rank cv < verdict_rank bv then
                                reg
                                  "%s/%s: obligation #%g (%s) weakened %s -> \
                                   %s"
                                  bname pname id (obl_rewrite bo) bv cv
                              else if verdict_rank cv > verdict_rank bv then
                                note
                                  "%s/%s: obligation #%g strengthened %s -> \
                                   %s - consider refreshing the baseline"
                                  bname pname id bv cv))
                    (obls bp);
                  let base_ids =
                    List.filter_map obl_id (obls bp)
                  in
                  List.iter
                    (fun co ->
                      match obl_id co with
                      | Some id when not (List.mem id base_ids) ->
                          note
                            "%s/%s: new obligation #%g (%s) not in baseline - \
                             refresh to start gating it"
                            bname pname id (obl_rewrite co)
                      | _ -> ())
                    cur_obls)
            (passes bb);
          List.iter
            (fun cp ->
              let pname = pass_name cp in
              if
                List.find_opt (fun bp -> pass_name bp = pname) (passes bb)
                = None
              then
                note "%s: new pass %s not in baseline - refresh to start \
                      gating it"
                  bname pname)
            (passes cb))
    base_b;
  List.iter
    (fun cb ->
      let cname = name_of cb in
      if find cname base_b = None then
        note "%s: new benchmark not in baseline - refresh to start gating it"
          cname)
    cur_b;
  {
    regressions = List.rev !regressions;
    notes = List.rev !notes;
    checked = !checked;
  }

let report ?(label = "bench gate") (g : gate) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d comparisons, %d regression(s), %d note(s)\n" label
       g.checked
       (List.length g.regressions)
       (List.length g.notes));
  List.iter
    (fun r -> Buffer.add_string buf (Printf.sprintf "REGRESSION %s\n" r))
    g.regressions;
  List.iter (fun m -> Buffer.add_string buf (Printf.sprintf "note %s\n" m)) g.notes;
  Buffer.contents buf

let ok (g : gate) = g.regressions = []
