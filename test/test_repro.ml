(* Checks over the repro CLI and the repository's own text.  Every
   command runs in a fresh process of the built repro.exe, from the
   test's directory in the build tree, where the repository's files
   (the deps in test/dune) sit one level up. *)

let repro = "../bin/repro.exe"

let suite =
  List.map (fun (b : Benchsuite.Runner.bench) -> b.name) Benchsuite.Suite.all

let read path = In_channel.with_open_bin path In_channel.input_all
let lines text = String.split_on_char '\n' text
let starts prefix l = String.starts_with ~prefix l

(* [repro args] in a fresh process: its stdout, or a failure when it
   exits nonzero. *)
let run args =
  let ic = Unix.open_process_args_in repro (Array.of_list (repro :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "repro %s failed:\n%s" (String.concat " " args) out

(* [f dir] on a fresh temporary directory, removed afterwards *)
let with_dir f =
  let dir = Filename.temp_dir "repro" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* ---------------------------------------------------------------- *)
(* Determinism                                                       *)
(* ---------------------------------------------------------------- *)

(* Certificates and traces are pure functions of their program: the
   prover's memo tables must not carry one program's proofs into
   another's, and executor runs number their blocks from 1.  So [cmd]
   run on one benchmark in a fresh process writes the file the
   whole-suite export writes, byte for byte. *)
let alone_equals_suite cmd file () =
  with_dir (fun all ->
      with_dir (fun one ->
          ignore (run [ cmd; "all"; "--json"; "-o"; all ]);
          let same b =
            ignore (run [ cmd; b; "--json"; "-o"; one ]);
            let whole = read (Filename.concat all (file b))
            and alone = read (Filename.concat one (file b)) in
            if whole <> alone then
              Alcotest.failf "%s %s alone differs from the whole-suite export"
                cmd b;
            whole <> ""
          in
          Alcotest.(check int)
            "non-empty files compared" (List.length suite)
            (List.length (List.filter same suite))))

(* ---------------------------------------------------------------- *)
(* EXPERIMENTS.md's tables are generated                             *)
(* ---------------------------------------------------------------- *)

let table_line l = starts "## " l || starts "|" l
let table_heading = Str.regexp "## \\(Table [IVX]+:\\|Ablation \\)"

(* Tables I-VII and the Ablation table in EXPERIMENTS.md: each such
   "## " heading and the "|" rows under it, up to the next other "## "
   heading. *)
let committed_tables text =
  List.fold_left
    (fun (on, acc) l ->
      let on =
        if starts "## " l then Str.string_match table_heading l 0 else on
      in
      (on, if on && table_line l then l :: acc else acc))
    (false, []) (lines text)
  |> snd |> List.rev

(* The cost model and the compiler are deterministic, so a change that
   moves a modeled number or a circuit count regenerates the tables in
   EXPERIMENTS.md in the same change. *)
let test_tables () =
  let generated =
    List.filter table_line (lines (run [ "table"; "all"; "--markdown" ]))
  and committed = committed_tables (read "../EXPERIMENTS.md") in
  let tables l = List.length (List.filter (starts "## ") l) in
  Alcotest.(check int) "tables in EXPERIMENTS.md" 8 (tables committed);
  Alcotest.(check int) "tables generated" 8 (tables generated);
  let rec first_diff i = function
    | c :: cs, g :: gs when c = g -> first_diff (i + 1) (cs, gs)
    | [], [] -> ()
    | c, g ->
        let hd = function l :: _ -> l | [] -> "(end)" in
        Alcotest.failf
          "table line %d differs:\n  EXPERIMENTS.md: %s\n  generated:      %s"
          i (hd c) (hd g)
  in
  first_diff 1 (committed, generated)

(* ---------------------------------------------------------------- *)
(* Source rules                                                      *)
(* ---------------------------------------------------------------- *)

(* [src] without its comments, which nest *)
let strip_comments src =
  let n = String.length src and b = Buffer.create (String.length src) in
  let at i s = i + 1 < n && src.[i] = s.[0] && src.[i + 1] = s.[1] in
  let rec go i depth =
    if i < n then
      if at i "(*" then go (i + 2) (depth + 1)
      else if depth > 0 && at i "*)" then go (i + 2) (depth - 1)
      else begin
        if depth = 0 then Buffer.add_char b src.[i];
        go (i + 1) depth
      end
  in
  go 0 0;
  Buffer.contents b

let finds re text =
  match Str.search_forward re text 0 with
  | _ -> true
  | exception Not_found -> false

(* The certificate checker re-derives scalar definitions, memory LMADs
   and annotations by private scans (DESIGN.md section 10), so a bug in
   the Core.Facts the passes and memlint share cannot acquit a
   certificate.  Comments may name the module; code may not. *)
let test_certify_without_facts () =
  let facts = Str.regexp "\\bFacts\\b" in
  let src = read "../lib/core/certify.ml" in
  Alcotest.(check bool)
    "certify.ml's comments name Facts" true (finds facts src);
  Alcotest.(check bool)
    "certify.ml's code names Facts" false
    (finds facts (strip_comments src))

(* The paper programs are source text that Frontend.Elab elaborates
   (PAPER section III-B: LMAD slices in the source language too), so no
   benchsuite module builds IR through Ir.Build. *)
let test_surface_source () =
  let dir = "../lib/benchsuite" in
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".ml")
      (Array.to_list (Sys.readdir dir))
  in
  List.iter
    (fun f ->
      if finds (Str.regexp "Ir\\.Build\\|Build\\.")
           (strip_comments (read (Filename.concat dir f)))
      then Alcotest.failf "lib/benchsuite/%s builds IR with Ir.Build" f)
    files;
  Alcotest.(check bool)
    "a module per benchmark read" true
    (List.length files >= List.length suite)

(* ---------------------------------------------------------------- *)
(* dump                                                              *)
(* ---------------------------------------------------------------- *)

(* `dump` selects every benchmark when given none, as every subcommand
   does, and prints each program in turn. *)
let test_dump () =
  let defs args =
    List.length (List.filter (starts "def ") (lines (run args)))
  in
  Alcotest.(check int) "dump" (List.length suite) (defs [ "dump" ]);
  Alcotest.(check int)
    "dump all -P" (List.length suite)
    (defs [ "dump"; "all"; "-P" ])

let () =
  Alcotest.run "repro"
    [
      ( "determinism",
        [
          Alcotest.test_case "certify: each benchmark alone = the suite" `Quick
            (alone_equals_suite "certify" (fun b -> b ^ ".cert.json"));
          Alcotest.test_case "trace: each benchmark alone = the suite" `Quick
            (alone_equals_suite "trace" (fun b -> b ^ ".json"));
        ] );
      ( "experiments",
        [
          Alcotest.test_case "tables = repro table all --markdown" `Quick
            test_tables;
        ] );
      ( "source",
        [
          Alcotest.test_case "certify.ml does not use Facts" `Quick
            test_certify_without_facts;
          Alcotest.test_case "benchmarks are surface source" `Quick
            test_surface_source;
        ] );
      ( "dump",
        [ Alcotest.test_case "every benchmark, once" `Quick test_dump ] );
    ]
