(* The gates over the suite's JSON records, and the JSON reader
   they use, re-exported from Core.Json (the one JSON value the suite
   prints and parses).

   Both gates run one engine over a committed baseline and a freshly
   emitted document; each gate is a short description of its document:
   the lists whose entries it pairs and the values it gates, each under
   one of four rules.

   - Entries pair by key, at every list level.  A baseline entry the
     current document lacks is a regression; a current entry the
     baseline lacks is a note.
   - A gated value is judged by its rule when both documents hold it,
     is a regression when only the baseline holds it, and is skipped
     when the baseline lacks it.
   - The rules: within the relative tolerance (modeled times are
     simulated, so drift only comes from code changes, and the
     tolerance only absorbs intentional cost-model adjustments), never
     up and never down (exact counters), and verdict rank (proved >
     concretized > failed).  A move the rule forbids is a regression;
     a move the other way (beyond the tolerance, where the rule has
     one) is a note, a prompt to refresh the baseline.
   - Counting: each gated value of a paired entry is one comparison,
     judged or found missing; an unpaired entry is one regression or
     one note and counts nothing. *)

include Core.Json

type gate = {
  regressions : string list; (* hard failures: exit nonzero *)
  notes : string list; (* informational: improvements and additions *)
  checked : int; (* individual comparisons performed *)
}

(* ---------------------------------------------------------------- *)
(* The engine                                                        *)
(* ---------------------------------------------------------------- *)

(* A gate fills one accumulator, newest message first. *)
let reg a =
  Printf.ksprintf (fun m -> a := { !a with regressions = m :: !a.regressions })

let note a = Printf.ksprintf (fun m -> a := { !a with notes = m :: !a.notes })

let run compare =
  let a = ref { regressions = []; notes = []; checked = 0 } in
  compare a;
  { !a with regressions = List.rev !a.regressions; notes = List.rev !a.notes }

(* Pair the entries of a baseline list and a current list by [key]
   and compare each pair with [k], which gets the name [where] gives
   the entry in messages. *)
let pair a ~kind ~key ~where base cur k =
  let find e l = List.find_opt (fun e' -> key e' = key e) l in
  List.iter
    (fun b ->
      match find b cur with
      | Some c -> k (where b) b c
      | None -> reg a "%s: %s missing from current run" (where b) kind)
    base;
  List.iter
    (fun c ->
      if Option.is_none (find c base) then
        note a "%s: new %s not in baseline - refresh to start gating it"
          (where c) kind)
    cur

(* One gated value, [what] naming it. *)
let gated a what rule b c =
  if Option.is_some b then a := { !a with checked = !a.checked + 1 };
  match (b, c) with
  | Some b, Some c -> (
      match rule b c with
      | `Worse m -> reg a "%s %s" what m
      | `Better m -> note a "%s %s - consider refreshing the baseline" what m
      | `Same -> ())
  | Some _, None -> reg a "%s missing from current run" what
  | None, _ -> ()

(* The numeric fields [names] of two paired entries, each under [rule]. *)
let fields a where rule names b c =
  List.iter
    (fun f -> gated a (where ^ ": " ^ f) rule (num_at [ f ] b) (num_at [ f ] c))
    names

(* ---------------------------------------------------------------- *)
(* The rules                                                          *)
(* ---------------------------------------------------------------- *)

let tolerance = 0.05

(* A number that moved from [b] to [c]: unchanged within [tol] of [b],
   else a regression when it moved the [worse] way and a note when it
   moved the other. *)
let moved ~tol ~worse b c =
  let d = c -. b in
  let m =
    Printf.sprintf "%s %s -> %s%s"
      (if d > 0. then "rose" else "fell")
      (number b) (number c)
      (if tol = 0. then ""
       else
         Printf.sprintf " (%+.1f%%, tolerance %.1f%%)" (100. *. d /. b)
           (100. *. tol))
  in
  if Float.abs d <= tol *. Float.abs b then `Same
  else if (d > 0.) = (worse = `Up) then `Worse m
  else `Better m

let within_tolerance = moved ~tol:tolerance ~worse:`Up
let never_up = moved ~tol:0. ~worse:`Up
let never_down = moved ~tol:0. ~worse:`Down

let verdict b c =
  let rank = function "proved" -> 2 | "concretized" -> 1 | _ -> 0 in
  let m verb = Printf.sprintf "%s %s -> %s" verb b c in
  if rank c < rank b then `Worse (m "weakened")
  else if rank c > rank b then `Better (m "strengthened")
  else `Same

(* ---------------------------------------------------------------- *)
(* The two documents                                                  *)
(* ---------------------------------------------------------------- *)

(* field [k] of object [v] as a list ([] when absent), a string ("?"
   when absent) or an object (Null when absent) *)
let list_at k v = Option.value ~default:[] (Option.bind (member k v) arr)
let text k v = Option.bind (member k v) str
let str_at k v = Option.value ~default:"?" (text k v)
let sub k v = Option.value ~default:Null (member k v)

let benchmarks a ~baseline ~current k =
  pair a ~kind:"benchmark" ~key:(str_at "name") ~where:(str_at "name")
    (list_at "benchmarks" baseline)
    (list_at "benchmarks" current)
    k

(* BENCH.json, per benchmark: each (device, dataset) row's modeled time
   per variant within the tolerance; each dataset's footprint per
   variant, whose allocation count, peak live bytes and modeled DRAM
   traffic never rise; the packing pass's coverage, whose arenas,
   packed placements and certified lifetime holes never fall and whose
   undecidable placements never rise.  Over the whole suite, the
   prover's misses (goals, contexts and non-overlap questions decided
   afresh) within the tolerance: they repeat exactly from run to run,
   so a rise means searches the prover used to avoid are back. *)
let gate ~(baseline : t) ~(current : t) : gate =
  let variants = Core.Pipeline.variant_names in
  run (fun a ->
      benchmarks a ~baseline ~current (fun bw b c ->
          let row r = str_at "device" r ^ "/" ^ str_at "dataset" r in
          pair a ~kind:"row" ~key:row
            ~where:(fun r -> Printf.sprintf "%s [%s]" bw (row r))
            (list_at "rows" b) (list_at "rows" c)
            (fun w ->
              fields a w within_tolerance
                (List.map (fun v -> v ^ "_ms") variants));
          let ds = str_at "dataset" in
          let footprints f =
            List.filter_map
              (fun v -> Option.map (fun o -> (v, o)) (member v f))
              variants
          in
          pair a ~kind:"footprint" ~key:ds
            ~where:(fun f -> Printf.sprintf "%s [%s]" bw (ds f))
            (list_at "footprints" b) (list_at "footprints" c)
            (fun fw b c ->
              pair a ~kind:"footprint" ~key:fst
                ~where:(fun (v, _) -> fw ^ " " ^ v)
                (footprints b) (footprints c)
                (fun w (_, b) (_, c) ->
                  fields a w never_up
                    [ "allocs"; "peak_bytes"; "traffic_bytes" ]
                    b c));
          let w = bw ^ " pack_stats" in
          let b = sub "pack_stats" b and c = sub "pack_stats" c in
          fields a w never_down [ "arenas"; "packed"; "holes" ] b c;
          fields a w never_up [ "unpacked" ] b c);
      fields a "prover" within_tolerance
        [ "nonneg_misses"; "sat_misses"; "verdict_misses" ]
        (sub "prover" baseline) (sub "prover" current))

(* The combined certificate document, per benchmark: each pass's
   emitted and proved counts never fall (the passes must keep
   justifying at least as many rewrites), and each obligation's verdict
   never weakens.  A failed obligation in the current document is one
   regression whatever the baseline holds: the verdict rule's when the
   baseline holds it at a stronger verdict, else its own. *)
let cert_gate ~(baseline : t) ~(current : t) : gate =
  let pass_where bw p = bw ^ "/" ^ str_at "pass" p in
  let id o = Option.fold ~none:"?" ~some:number (num_at [ "id" ] o) in
  let obl_where pw o =
    Printf.sprintf "%s #%s (%s)" pw (id o) (str_at "rewrite" o)
  in
  (* the baseline's verdict of the obligation of benchmark [bn], pass
     [pn] and id [oid] *)
  let held bn pn oid =
    let ( let* ) = Option.bind in
    let find key x l = List.find_opt (fun e -> key e = x) l in
    let* b = find (str_at "name") bn (list_at "benchmarks" baseline) in
    let* p = find (str_at "pass") pn (list_at "passes" b) in
    let* o = find id oid (list_at "obligations" p) in
    text "verdict" o
  in
  run (fun a ->
      (* failed obligations first, wherever they are *)
      List.iter
        (fun b ->
          List.iter
            (fun p ->
              List.iter
                (fun o ->
                  (* the verdict rule reports one the baseline holds at
                     a stronger verdict *)
                  let weakened =
                    match held (str_at "name" b) (str_at "pass" p) (id o) with
                    | Some v -> verdict v "failed" <> `Same
                    | None -> false
                  in
                  if str_at "verdict" o = "failed" && not weakened then
                    reg a "%s: obligation failed in the current run"
                      (obl_where (pass_where (str_at "name" b) p) o))
                (list_at "obligations" p))
            (list_at "passes" b))
        (list_at "benchmarks" current);
      benchmarks a ~baseline ~current (fun bw b c ->
          pair a ~kind:"pass" ~key:(str_at "pass") ~where:(pass_where bw)
            (list_at "passes" b) (list_at "passes" c)
            (fun pw b c ->
              fields a pw never_down [ "emitted"; "proved" ] b c;
              pair a ~kind:"obligation" ~key:id ~where:(obl_where pw)
                (list_at "obligations" b) (list_at "obligations" c)
                (fun ow b c ->
                  gated a (ow ^ ": verdict") verdict (text "verdict" b)
                    (text "verdict" c)))))

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
