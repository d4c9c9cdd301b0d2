(* Integration tests over the benchmark suite: every case study is
   validated end to end at a reduced size (reference interpreter =
   memory executor, unoptimized = optimized, and = the independent
   direct OCaml implementation), and the expected short-circuiting
   behaviour of the paper's narrative is asserted (which circuits fire
   and which must not). *)

module R = Benchsuite.Runner
module V = Ir.Value

let check_validation name (v : R.validation) =
  List.iter
    (fun (variant, ok) ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s = interp" name variant)
        true ok)
    v.R.ok

(* The memory passes leave the functional program unchanged: the
   interpreter, which ignores memory, runs every variant bit-equal to
   the source. *)
let check_variants name (c : Core.Pipeline.compiled) args =
  let expect = Ir.Interp.run c.source args in
  List.iter
    (fun (v, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: interp %s = interp source" name v)
        true
        (List.for_all2 V.bit_equal expect (Ir.Interp.run p args)))
    (Core.Pipeline.variants c)

let check_oracle name out expect =
  match out with
  | [ V.VArr a ] ->
      let d = V.float_data a in
      Alcotest.(check int) (name ^ " oracle length") (Array.length expect)
        (Array.length d);
      Array.iteri
        (fun i x ->
          let s = Float.max 1.0 (Float.abs expect.(i)) in
          if Float.abs (x -. expect.(i)) > 1e-6 *. s then
            Alcotest.failf "%s: oracle mismatch at %d: %g vs %g" name i x
              expect.(i))
        d
  | _ -> Alcotest.fail (name ^ ": unexpected result shape")

let test_nw () =
  let q = 3 and b = 4 in
  let args = Benchsuite.Nw.small_args ~q ~b in
  let c = Core.Pipeline.compile Benchsuite.Nw.prog in
  let v = R.validate ~compiled:c Benchsuite.Nw.prog args in
  check_validation "nw" v;
  check_variants "nw" c args;
  (* both halves circuit and all copies disappear *)
  Alcotest.(check bool) "nw: circuits fired" true (v.R.sc_succeeded >= 2);
  Alcotest.(check int) "nw: opt copy-free" 0 v.R.copies_opt;
  check_oracle "nw"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Nw.small_direct ~q ~b)

let test_lud () =
  let q = 3 and b = 4 in
  let args = Benchsuite.Lud.small_args ~q ~b in
  let c = Core.Pipeline.compile Benchsuite.Lud.prog in
  let v = R.validate ~compiled:c Benchsuite.Lud.prog args in
  check_validation "lud" v;
  check_variants "lud" c args;
  (* yellow + red circuit as in the paper.  The blue temporary is read
     by the interior kernel after its write-back, so its copy must
     remain.  The paper keeps the green (diagonal) copy too, but with
     triangular-bound saturation in the prover the single-thread
     diagonal factorization is proven safe to run in place, so only
     blue's copy survives: one per step except the last, whose
     perimeter phases are branched away (m = 0). *)
  Alcotest.(check int)
    "lud: only blue copies remain" (q - 1) v.R.copies_opt;
  Alcotest.(check bool) "lud: yellow+red+green circuits" true
    (v.R.sc_succeeded >= 3);
  check_oracle "lud"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Lud.small_direct ~q ~b)

let test_hotspot () =
  let n = 16 and steps = 3 in
  let args = Benchsuite.Hotspot.small_args ~n ~steps in
  let c = Core.Pipeline.compile Benchsuite.Hotspot.prog in
  let v = R.validate ~compiled:c Benchsuite.Hotspot.prog args in
  check_validation "hotspot" v;
  check_variants "hotspot" c args;
  Alcotest.(check int) "hotspot: concat free" 0 v.R.copies_opt;
  Alcotest.(check int) "hotspot: 3 parts x steps elided" (3 * steps) v.R.elided;
  check_oracle "hotspot"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Hotspot.small_direct ~n ~steps)

let test_lbm () =
  let n = 6 and steps = 2 in
  let args = Benchsuite.Lbm.small_args ~n ~steps in
  let c = Core.Pipeline.compile Benchsuite.Lbm.prog in
  let v = R.validate ~compiled:c Benchsuite.Lbm.prog args in
  check_validation "lbm" v;
  check_variants "lbm" c args;
  (* per-thread 9-vectors are built in place: one elision per cell/step *)
  Alcotest.(check int) "lbm: per-cell elisions" (n * n * steps) v.R.elided;
  check_oracle "lbm"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Lbm.small_direct ~n ~steps)

let test_option_pricing () =
  let npaths = 32 and nsteps = 12 in
  let args = Benchsuite.Option_pricing.small_args ~npaths ~nsteps in
  let c = Core.Pipeline.compile Benchsuite.Option_pricing.prog in
  let v = R.validate ~compiled:c Benchsuite.Option_pricing.prog args in
  check_validation "optionpricing" v;
  check_variants "optionpricing" c args;
  Alcotest.(check int) "optionpricing: path elisions" npaths v.R.elided;
  match Ir.Interp.run c.Core.Pipeline.source args with
  | [ V.VFloat price ] ->
      let expect = Benchsuite.Option_pricing.small_direct ~npaths ~nsteps in
      Alcotest.(check (float 1e-9)) "optionpricing price" expect price
  | _ -> Alcotest.fail "optionpricing: bad result shape"

let test_locvolcalib () =
  let numo = 5 and numx = 9 and numt = 3 in
  let args = Benchsuite.Locvolcalib.small_args ~numo ~numx ~numt in
  let c = Core.Pipeline.compile Benchsuite.Locvolcalib.prog in
  let v = R.validate ~compiled:c Benchsuite.Locvolcalib.prog args in
  check_validation "locvolcalib" v;
  check_variants "locvolcalib" c args;
  Alcotest.(check int) "locvolcalib: per-option elisions" numo v.R.elided;
  check_oracle "locvolcalib"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Locvolcalib.small_direct ~numo ~numx ~numt)

let test_nn () =
  let nrec = 64 and nbatch = 4 and bsz = 8 in
  let args = Benchsuite.Nn.small_args ~nrec ~nbatch ~bsz in
  let c = Core.Pipeline.compile Benchsuite.Nn.prog in
  let v = R.validate ~compiled:c Benchsuite.Nn.prog args in
  check_validation "nn" v;
  check_variants "nn" c args;
  Alcotest.(check int) "nn: batch copies elided" nbatch v.R.elided;
  Alcotest.(check int) "nn: opt copy-free" 0 v.R.copies_opt;
  check_oracle "nn"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Nn.small_direct ~nrec ~nq:(nbatch * bsz))

(* The table harness itself: run one small sanity config through
   Runner.run_table and check the qualitative shape claims. *)
let test_table_shape () =
  let o = R.run_table Benchsuite.Hotspot.bench in
  Alcotest.(check bool) "hotspot impact >= 1.5 everywhere" true
    (Benchsuite.Table.min_impact o.R.table >= 1.5);
  Alcotest.(check bool) "hotspot impact <= 2.2" true
    (Benchsuite.Table.max_impact o.R.table <= 2.2);
  Alcotest.(check bool) "all hotspot circuits fire" true
    (let st = o.R.compiled.Core.Pipeline.stats in
     st.Core.Shortcircuit.succeeded = st.Core.Shortcircuit.candidates);
  let every claim =
    List.for_all (fun (_, fps) -> claim (fun v -> List.assoc v fps))
      o.R.footprints
  in
  Alcotest.(check bool) "footprint shrinks" true
    (every (fun fp ->
         (fp "opt").R.f_alloc_bytes < (fp "unopt").R.f_alloc_bytes
         && (fp "opt").R.f_peak_bytes < (fp "unopt").R.f_peak_bytes));
  Alcotest.(check bool) "reuse shrinks further (hotspot rotation)" true
    (every (fun fp ->
         (fp "reuse").R.f_allocs < (fp "opt").R.f_allocs
         && (fp "reuse").R.f_peak_bytes < (fp "opt").R.f_peak_bytes));
  Alcotest.(check bool) "packing never grows allocs or peak" true
    (every (fun fp ->
         (fp "pack").R.f_allocs <= (fp "reuse").R.f_allocs
         && (fp "pack").R.f_peak_bytes <= (fp "reuse").R.f_peak_bytes))

(* EXPERIMENTS' Appendix: at every benchmark's reduced size, the opt
   variant's measured (traced Full) and modeled (cost-only) kernel and
   copy bytes agree exactly, and its trace stays inside the static
   annotations. *)
let test_traffic_audit () =
  List.iter
    (fun (b : R.bench) ->
      let t =
        R.traffic_comparison (Core.Pipeline.compile b.prog) (b.small_args ())
      in
      Alcotest.(check bool) (b.name ^ ": kernel bytes measured") true
        (t.R.measured_rw > 0.);
      Alcotest.(check (float 0.)) (b.name ^ ": kernel R+W") t.R.measured_rw
        t.R.modeled_rw;
      Alcotest.(check (float 0.)) (b.name ^ ": copy bytes") t.R.measured_copy
        t.R.modeled_copy;
      Alcotest.(check bool) (b.name ^ ": memtrace clean") true
        (Core.Memtrace.ok t.R.check))
    Benchsuite.Suite.all

(* The suite registry: the seven programs in table order, selected by
   name in any case, by table number or all together, and a fresh set
   of reduced-size arguments per call. *)
let test_registry () =
  let module S = Benchsuite.Suite in
  let names bs = List.map (fun (b : R.bench) -> b.name) bs in
  let seven =
    [ "nw"; "lud"; "hotspot"; "lbm"; "optionpricing"; "locvolcalib"; "nn" ]
  in
  Alcotest.(check (list string)) "names in table order" seven (names S.all);
  Alcotest.(check (list int))
    "table numbers" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.map (fun (b : R.bench) -> b.table_no) S.all);
  let selected = Alcotest.(result (list string) string) in
  let select s = Result.map names (S.select s) in
  Alcotest.check selected "LUD" (Ok [ "lud" ]) (select "LUD");
  Alcotest.check selected "2" (Ok [ "lud" ]) (select "2");
  Alcotest.check selected "all" (Ok seven) (select "all");
  Alcotest.check selected "9"
    (Error
       "unknown benchmark \"9\" (try: nw, lud, hotspot, lbm, optionpricing, \
        locvolcalib, nn)")
    (select "9");
  let arrays () =
    List.filter_map
      (function V.VArr a -> Some (V.float_data a) | _ -> None)
      (Benchsuite.Hotspot.bench.small_args ())
  in
  let first = arrays () and second = arrays () in
  Alcotest.(check int) "hotspot's two grids" 2 (List.length first);
  Alcotest.(check bool) "two calls share no array" true
    (List.for_all2 ( != ) first second)

(* ---------------------------------------------------------------- *)
(* The bench-trajectory gate (Benchjson)                             *)
(* ---------------------------------------------------------------- *)

module BJ = Benchsuite.Benchjson

let variant_names = Core.Pipeline.variant_names
let fp_counters = [ "allocs"; "peak_bytes"; "traffic_bytes" ]
let pack_counters = [ "arenas"; "packed"; "unpacked"; "holes" ]
let prover_work = [ "nonneg_misses"; "sat_misses"; "verdict_misses" ]

let sample_record ?(traffic = 512.) ~reuse_ms ~allocs () =
  Printf.sprintf
    {|{"date":"x","benchmarks":[{"name":"bm","rows":[
        {"device":"A100","dataset":"d","unopt_ms":10.0,"opt_ms":5.0,"reuse_ms":%g}],
      "footprints":[{"dataset":"d",
        "unopt":{"allocs":20,"peak_bytes":4096,"traffic_bytes":2048},
        "opt":{"allocs":5,"peak_bytes":2048,"traffic_bytes":1024},
        "reuse":{"allocs":%d,"peak_bytes":1024,"traffic_bytes":%g}}]}]}|}
    reuse_ms allocs traffic

let parse_exn s =
  match BJ.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_gate_json_roundtrip () =
  let v = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let reuse_ms =
    match Option.bind (BJ.member "benchmarks" v) BJ.arr with
    | Some (b :: _) -> (
        match Option.bind (BJ.member "rows" b) BJ.arr with
        | Some (r :: _) -> BJ.num_at [ "reuse_ms" ] r
        | _ -> None)
    | _ -> None
  in
  Alcotest.(check (option (float 0.0))) "nested time" (Some 4.0) reuse_ms;
  (* malformed input must be an [Error], not an exception *)
  Alcotest.(check bool) "truncated input rejected" true
    (match BJ.parse "{\"a\": [1, 2" with Error _ -> true | Ok _ -> false)

(* The one JSON printer and reader: printing a value, parsing the text
   and printing it again gives the same text and the same value, for
   strings with control characters (printed as \u escapes) and for
   integers up to 2^53 (printed exactly). *)
let prop_json_round_trip =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:(oneof [ char_range '\000' '\031'; printable; char ])
      (0 -- 8)
  in
  let num =
    oneof
      [
        map float_of_int small_signed_int;
        map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
        map (fun k -> float_of_int k /. 8.) (int_range (-8000) 8000);
      ]
  in
  let value =
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return BJ.Null;
                 map (fun b -> BJ.Bool b) bool;
                 map (fun f -> BJ.Num f) num;
                 map (fun s -> BJ.Str s) str;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map (fun l -> BJ.Arr l) (list_size (0 -- 4) (self (n / 4)))
                 );
                 ( 1,
                   map
                     (fun l -> BJ.Obj l)
                     (list_size (0 -- 4) (pair str (self (n / 4)))) );
               ])
  in
  QCheck.Test.make ~name:"json: print-parse-print is the identity"
    ~count:(Qcount.count 500)
    (QCheck.make ~print:BJ.to_string value)
    (fun v ->
      let text = BJ.to_string v in
      match BJ.parse text with
      | Ok v' -> BJ.to_string v' = text && v' = v
      | Error e -> QCheck.Test.fail_reportf "%s: %s" text e)

let test_gate_identity_passes () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let g = BJ.gate ~baseline:b ~current:b in
  Alcotest.(check bool) "identity passes" true (BJ.ok g);
  Alcotest.(check bool) "comparisons performed" true (g.BJ.checked > 0)

let test_gate_catches_time_regression () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let worse = parse_exn (sample_record ~reuse_ms:4.5 ~allocs:1 ()) in
  let g = BJ.gate ~baseline:b ~current:worse in
  Alcotest.(check bool) "12% slower reuse fails" true (not (BJ.ok g));
  (* within tolerance: passes *)
  let ok = parse_exn (sample_record ~reuse_ms:4.1 ~allocs:1 ()) in
  Alcotest.(check bool) "2.5% drift passes" true
    (BJ.ok (BJ.gate ~baseline:b ~current:ok))

let test_gate_catches_footprint_regression () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let worse = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:2 ()) in
  let g = BJ.gate ~baseline:b ~current:worse in
  (* exact counters are gated monotonically: +1 alloc is a failure
     regardless of any tolerance *)
  Alcotest.(check bool) "alloc growth fails" true (not (BJ.ok g))

let test_gate_catches_traffic_regression () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let worse =
    parse_exn (sample_record ~traffic:600. ~reuse_ms:4.0 ~allocs:1 ())
  in
  (* modeled DRAM traffic is an exact counter too: any growth fails *)
  Alcotest.(check bool) "traffic growth fails" true
    (not (BJ.ok (BJ.gate ~baseline:b ~current:worse)))

let test_gate_improvement_is_note () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:2 ()) in
  let better = parse_exn (sample_record ~reuse_ms:3.0 ~allocs:1 ()) in
  let g = BJ.gate ~baseline:b ~current:better in
  Alcotest.(check bool) "improvement passes" true (BJ.ok g);
  Alcotest.(check bool) "improvement noted" true (g.BJ.notes <> [])

let test_gate_missing_benchmark_fails () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let empty = parse_exn {|{"date":"x","benchmarks":[]}|} in
  Alcotest.(check bool) "dropped benchmark fails" true
    (not (BJ.ok (BJ.gate ~baseline:b ~current:empty)));
  (* the other direction is only a note: new benchmarks do not fail *)
  Alcotest.(check bool) "new benchmark passes" true
    (BJ.ok (BJ.gate ~baseline:empty ~current:b))

(* The prover's misses count its searches and repeat exactly, so they
   are gated like a modeled time: a 10% rise in nonneg_misses is one
   regression, a rise within the tolerance passes, and a fall is a
   note. *)
let test_gate_prover_work () =
  let record ?(verdict = 68) ~nonneg ~sat () =
    parse_exn
      (Printf.sprintf
         {|{"date":"x","benchmarks":[],"prover":{"nonneg_misses":%d,"sat_misses":%d,"verdict_misses":%d}}|}
         nonneg sat verdict)
  in
  let b = record ~nonneg:3541 ~sat:54 () in
  let same = BJ.gate ~baseline:b ~current:b in
  Alcotest.(check int) "all three counts compared" 3 same.BJ.checked;
  Alcotest.(check bool) "identity passes" true (BJ.ok same);
  let inflated =
    BJ.gate ~baseline:b ~current:(record ~nonneg:3896 ~sat:54 ())
  in
  Alcotest.(check int) "misses +10% is one regression" 1
    (List.length inflated.BJ.regressions);
  let repeated =
    BJ.gate ~baseline:b ~current:(record ~verdict:80 ~nonneg:3541 ~sat:54 ())
  in
  Alcotest.(check int) "non-overlap questions re-decided: a regression" 1
    (List.length repeated.BJ.regressions);
  Alcotest.(check bool) "a rise within tolerance passes" true
    (BJ.ok (BJ.gate ~baseline:b ~current:(record ~nonneg:3600 ~sat:54 ())));
  let fell = BJ.gate ~baseline:b ~current:(record ~nonneg:3541 ~sat:50 ()) in
  Alcotest.(check bool) "a fall passes" true (BJ.ok fell);
  Alcotest.(check int) "a fall is a note" 1 (List.length fell.BJ.notes)

(* A record holding every gated field once: a row and a footprint over
   every variant of the ladder, pack_stats and the prover's work. *)
let complete_record =
  let fields f l = String.concat "," (List.map f l) in
  let count k = Printf.sprintf "%S:8" k and vs = variant_names in
  let fp v = Printf.sprintf "%S:{%s}" v (fields count fp_counters) in
  parse_exn
    (Printf.sprintf
       {|{"benchmarks":[{"name":"bm","rows":[{"device":"A","dataset":"d",%s}],
          "footprints":[{"dataset":"d",%s}],"pack_stats":{%s}}],
          "prover":{%s}}|}
       (fields (fun v -> count (v ^ "_ms")) vs)
       (fields fp vs) (fields count pack_counters) (fields count prover_work))

let rec without key = function
  | BJ.Obj l ->
      BJ.Obj
        (List.filter_map
           (fun (k, v) -> if k = key then None else Some (k, without key v))
           l)
  | BJ.Arr l -> BJ.Arr (List.map (without key) l)
  | v -> v

(* A gated field present in the baseline and missing from the current
   record is a regression wherever it left; missing from both records,
   it is skipped. *)
let check_dropped regressions keys () =
  let full = complete_record in
  Alcotest.(check int) "a complete record compares every field" 23
    (BJ.gate ~baseline:full ~current:full).BJ.checked;
  List.iter
    (fun key ->
      let cut = without key full in
      Alcotest.(check int) (key ^ " dropped: regressions") regressions
        (List.length (BJ.gate ~baseline:full ~current:cut).BJ.regressions);
      Alcotest.(check bool) (key ^ " missing from both: skipped") true
        (BJ.ok (BJ.gate ~baseline:cut ~current:cut)))
    keys

(* The certificate gate likewise: a pass's emitted or proved count
   that the baseline holds and the current document lacks is a
   regression; lacking from both documents, it is skipped. *)
let test_cert_gate_missing_count () =
  let doc ~counts =
    parse_exn
      (Printf.sprintf
         {|{"benchmarks":[{"name":"nw","passes":[{"pass":"reuse",%s
            "obligations":[{"id":0,"rewrite":"r","verdict":"proved"}]}]}]}|}
         counts)
  in
  let full = doc ~counts:{|"emitted":3,"proved":3,|} in
  let same = BJ.cert_gate ~baseline:full ~current:full in
  Alcotest.(check int) "both counts and the obligation compared" 3
    same.BJ.checked;
  Alcotest.(check bool) "identity passes" true (BJ.ok same);
  List.iter
    (fun (what, counts, regressions) ->
      let cut = doc ~counts in
      Alcotest.(check int) (what ^ " dropped: regressions") regressions
        (List.length
           (BJ.cert_gate ~baseline:full ~current:cut).BJ.regressions);
      Alcotest.(check bool) (what ^ " missing from both: skipped") true
        (BJ.ok (BJ.cert_gate ~baseline:cut ~current:cut)))
    [
      ("emitted", {|"proved":3,|}, 1);
      ("proved", {|"emitted":3,|}, 1);
      ("both counts", "", 2);
    ]

(* One gate run against its expected outcome: the regression and note
   counts, the comparisons made, and every message naming [names] - its
   benchmark, entry and field. *)
let check_outcome what (g : BJ.gate) ~regressions ~notes ~checked ~names =
  Alcotest.(check int) (what ^ ": regressions") regressions
    (List.length g.BJ.regressions);
  Alcotest.(check int) (what ^ ": notes") notes (List.length g.BJ.notes);
  Alcotest.(check int) (what ^ ": comparisons") checked g.BJ.checked;
  let mentions m s =
    let m = String.lowercase_ascii m and n = String.length s in
    let rec at i =
      i + n <= String.length m && (String.sub m i n = s || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun m ->
      List.iter
        (fun s ->
          if not (mentions m s) then
            Alcotest.failf "%s: %S does not name %S" what m s)
        names)
    (g.BJ.regressions @ g.BJ.notes)

let rec replace key x = function
  | BJ.Obj l ->
      BJ.Obj
        (List.map (fun (k, v) -> (k, if k = key then x else replace key x v)) l)
  | BJ.Arr l -> BJ.Arr (List.map (replace key x) l)
  | v -> v

(* The bench gate's paths no other test takes: a whole row or
   footprint dataset gone is one regression and counts no comparison,
   nor do the values it held; and a packing counter moving the wrong
   way, in each direction. *)
let test_gate_lost_ground () =
  let full = complete_record in
  List.iter
    (fun (what, key, x, checked, names) ->
      check_outcome what
        (BJ.gate ~baseline:full ~current:(replace key x full))
        ~regressions:1 ~notes:0 ~checked ~names)
    [
      ("row missing", "rows", BJ.Arr [], 19, [ "bm"; "[a/d]"; "row" ]);
      ( "footprint missing", "footprints", BJ.Arr [], 11,
        [ "bm"; "[d]"; "footprint" ] );
      ("arenas fell", "arenas", BJ.Num 7., 23, [ "bm"; "arenas"; "8"; "7" ]);
      ( "unpacked rose", "unpacked", BJ.Num 9., 23,
        [ "bm"; "unpacked"; "8"; "9" ] );
    ]

(* The certificate gate's paths no other test takes, each as a
   baseline/current pair of one-benchmark documents: what the current
   document loses is a regression, what it gains a note, and a failed
   obligation is a regression even where the baseline has none. *)
let test_cert_gate_paths () =
  let obl (id, verdict) =
    Printf.sprintf {|{"id":%d,"rewrite":"r%d","verdict":%S}|} id id verdict
  in
  let pass ?(emitted = 2) ?(name = "reuse") obls =
    Printf.sprintf {|{"pass":%S,"emitted":%d,"proved":1,"obligations":[%s]}|}
      name emitted
      (String.concat "," (List.map obl obls))
  in
  let doc benchmarks =
    parse_exn
      (Printf.sprintf {|{"benchmarks":[%s]}|}
         (String.concat ","
            (List.map
               (fun (name, passes) ->
                 Printf.sprintf {|{"name":%S,"passes":[%s]}|} name
                   (String.concat "," passes))
               benchmarks)))
  in
  let obls = [ (0, "proved"); (1, "concretized") ] in
  let base = doc [ ("nw", [ pass obls ]) ] in
  List.iter
    (fun (what, (baseline, current), regressions, notes, checked, names) ->
      check_outcome what
        (BJ.cert_gate ~baseline ~current)
        ~regressions ~notes ~checked ~names)
    [
      ("benchmark missing", (base, doc []), 1, 0, 0, [ "nw"; "benchmark" ]);
      ("new benchmark", (doc [], base), 0, 1, 0, [ "nw"; "benchmark" ]);
      ( "pass missing", (base, doc [ ("nw", []) ]), 1, 0, 0,
        [ "nw"; "reuse"; "pass" ] );
      ( "new pass", (doc [ ("nw", []) ], base), 0, 1, 0,
        [ "nw"; "reuse"; "pass" ] );
      ( "obligation gone",
        (base, doc [ ("nw", [ pass [ (0, "proved") ] ]) ]),
        1, 0, 3, [ "nw"; "reuse"; "#1"; "obligation" ] );
      ( "new obligation",
        (doc [ ("nw", [ pass [ (0, "proved") ] ]) ], base),
        0, 1, 3, [ "nw"; "reuse"; "#1"; "obligation" ] );
      ( "a failed obligation the baseline lacks",
        (base, doc [ ("nw", [ pass (obls @ [ (2, "failed") ]) ]) ]),
        1, 1, 4, [ "nw"; "reuse"; "#2" ] );
      ( "emitted fell",
        (base, doc [ ("nw", [ pass ~emitted:1 obls ]) ]),
        1, 0, 4, [ "nw"; "reuse"; "emitted"; "2"; "1" ] );
      ( "verdict strengthened",
        (base, doc [ ("nw", [ pass [ (0, "proved"); (1, "proved") ] ]) ]),
        0, 1, 4, [ "nw"; "reuse"; "#1"; "concretized"; "proved" ] );
    ]

let tests =
  [
    Alcotest.test_case "NW end-to-end" `Quick test_nw;
    Alcotest.test_case "LUD end-to-end" `Slow test_lud;
    Alcotest.test_case "Hotspot end-to-end" `Quick test_hotspot;
    Alcotest.test_case "LBM end-to-end" `Quick test_lbm;
    Alcotest.test_case "OptionPricing end-to-end" `Quick test_option_pricing;
    Alcotest.test_case "LocVolCalib end-to-end" `Quick test_locvolcalib;
    Alcotest.test_case "NN end-to-end" `Quick test_nn;
    Alcotest.test_case "Table shape (Hotspot)" `Quick test_table_shape;
    Alcotest.test_case "suite registry" `Quick test_registry;
    Alcotest.test_case "traffic audit: measured = modeled" `Quick
      test_traffic_audit;
    Alcotest.test_case "gate: JSON round-trip" `Quick test_gate_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    Alcotest.test_case "gate: identity passes" `Quick
      test_gate_identity_passes;
    Alcotest.test_case "gate: time regression fails" `Quick
      test_gate_catches_time_regression;
    Alcotest.test_case "gate: footprint regression fails" `Quick
      test_gate_catches_footprint_regression;
    Alcotest.test_case "gate: traffic regression fails" `Quick
      test_gate_catches_traffic_regression;
    Alcotest.test_case "gate: prover misses are gated" `Quick
      test_gate_prover_work;
    Alcotest.test_case "gate: improvement is a note" `Quick
      test_gate_improvement_is_note;
    Alcotest.test_case "gate: missing benchmark fails" `Quick
      test_gate_missing_benchmark_fails;
    Alcotest.test_case "gate: a missing row time fails" `Quick
      (check_dropped 1 (List.map (fun v -> v ^ "_ms") variant_names));
    Alcotest.test_case "gate: a missing footprint fails" `Quick
      (check_dropped 1 variant_names);
    Alcotest.test_case "gate: a missing footprint counter fails" `Quick
      (check_dropped (List.length variant_names) fp_counters);
    Alcotest.test_case "cert gate: a missing pass count fails" `Quick
      test_cert_gate_missing_count;
    Alcotest.test_case "gate: a missing pack_stats counter fails" `Quick
      (check_dropped 1 pack_counters);
    Alcotest.test_case "gate: missing prover work fails" `Quick
      (check_dropped 1 prover_work);
    Alcotest.test_case "gate: a lost row, footprint or pack counter fails"
      `Quick test_gate_lost_ground;
    Alcotest.test_case "cert gate: losses fail, gains are notes" `Quick
      test_cert_gate_paths;
  ]
