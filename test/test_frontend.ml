(* Tests for the surface-language front end: lexing, parsing,
   elaboration into the IR, and the full source-to-optimized-memory
   pipeline (the Fig. 1 example written as text). *)

module P = Symalg.Poly
module Pr = Symalg.Prover
module V = Ir.Value

let parse_ok src =
  try Frontend.Elab.compile_string src
  with
  | Frontend.Parser.Parse_error (m, p) ->
      Alcotest.failf "parse error at %d: %s" p m
  | Frontend.Lexer.Lex_error (m, p) ->
      Alcotest.failf "lex error at %d: %s" p m
  | Frontend.Elab.Elab_error m -> Alcotest.failf "elab error: %s" m

let run p args = Ir.Interp.run p args

let test_scalar_program () =
  let p =
    parse_ok
      {| def poly (x: i64): i64 =
           let y = x * x + 3 * x + 1 in
           y |}
  in
  Alcotest.(check bool) "p(5)=41" true (run p [ V.VInt 5 ] = [ V.VInt 41 ])

let test_map_program () =
  let p =
    parse_ok
      {| def squares (n: i64): [n]i64 =
           map (i < n) { i * i } |}
  in
  match run p [ V.VInt 5 ] with
  | [ V.VArr a ] ->
      Alcotest.(check (list int)) "squares" [ 0; 1; 4; 9; 16 ]
        (Array.to_list (V.int_data a))
  | _ -> Alcotest.fail "bad result"

let test_loop_if () =
  let p =
    parse_ok
      {| def collatzish (n: i64): i64 =
           loop (x = n) for i < 10 do {
             if x % 2 == 0 then x / 2 else 3 * x + 1
           } |}
  in
  (* follow 7 for ten steps by hand: 7,22,11,34,17,52,26,13,40,20,10 *)
  Alcotest.(check bool) "ten steps from 7" true
    (run p [ V.VInt 7 ] = [ V.VInt 10 ])

let test_slices_and_update () =
  let p =
    parse_ok
      {| def shift (n: i64, a: [n]f64): [n]f64 =
           let front = a[0 : n - 1 : 1] in
           let out = a with [1 : n - 1 : 1] = front in
           out |}
  in
  match
    run p
      [ V.VInt 4; V.VArr (V.of_floats [ 4 ] [| 1.; 2.; 3.; 4. |]) ]
  with
  | [ V.VArr a ] ->
      Alcotest.(check (list (float 0.))) "shifted" [ 1.; 1.; 2.; 3. ]
        (Array.to_list (V.float_data a))
  | _ -> Alcotest.fail "bad result"

(* The paper's Fig. 1 (left), as source text, through the whole
   pipeline: the LMAD-slice update short-circuits. *)
let fig1_src =
  {| def diag (n: i64, a: [n*n]f64): [n*n]f64 =
       let x = map (i < n) { a[i*n + i] + a[i] } in
       let a2 = a with [0; (n : n + 1)] = x in
       a2 |}

let test_fig1_pipeline () =
  let ctx = Pr.add_range Pr.empty "n" ~lo:P.one () in
  let p = Frontend.Elab.compile_string ~ctx fig1_src in
  let compiled = Core.Pipeline.compile p in
  Alcotest.(check bool) "short-circuits" true
    (compiled.Core.Pipeline.stats.Core.Shortcircuit.succeeded > 0);
  let nv = 5 in
  let args =
    [
      V.VInt nv;
      V.VArr (V.of_floats [ nv * nv ] (Array.init (nv * nv) float_of_int));
    ]
  in
  let expect = Ir.Interp.run compiled.Core.Pipeline.source args in
  let r = Gpu.Exec.run ~mode:Gpu.Exec.Full compiled.Core.Pipeline.opt args in
  Alcotest.(check bool) "optimized run agrees" true
    (List.for_all2 V.bit_equal expect r.Gpu.Exec.results);
  Alcotest.(check int) "copy elided" 0 r.Gpu.Exec.counters.Gpu.Device.copies

(* Data-dependent indexing parses but must stay unanalyzable. *)
let test_fig1_right_source () =
  let ctx = Pr.add_range Pr.empty "n" ~lo:P.one () in
  let p =
    Frontend.Elab.compile_string ~ctx
      {| def diagjs (n: i64, a: [n*n]f64, js: [n]i64): [n*n]f64 =
           let x = map (i < n) { a[i*n + i] + a[js[i]*n + js[i]] } in
           let a2 = a with [0; (n : n + 1)] = x in
           a2 |}
  in
  let compiled = Core.Pipeline.compile p in
  Alcotest.(check int) "must not short-circuit" 0
    compiled.Core.Pipeline.stats.Core.Shortcircuit.succeeded

let test_builtins () =
  let p =
    parse_ok
      {| def builtins (n: i64, a: [n]f64): f64 =
           let r = reverse(a) in
           let s = reduce_add(concat(a, r)) in
           s |}
  in
  match run p [ V.VInt 3; V.VArr (V.of_floats [ 3 ] [| 1.; 2.; 3. |]) ] with
  | [ V.VFloat s ] -> Alcotest.(check (float 1e-9)) "sum twice" 12.0 s
  | _ -> Alcotest.fail "bad result"

let test_parse_errors () =
  let bad src =
    match Frontend.Elab.compile_string src with
    | exception Frontend.Parser.Parse_error _ -> ()
    | exception Frontend.Lexer.Lex_error _ -> ()
    | exception Frontend.Elab.Elab_error _ -> ()
    | _ -> Alcotest.failf "accepted bad program: %s" src
  in
  bad "def f (x: i64): i64 = let y = in y";
  bad "def f (x: i64): i64 = x +";
  bad "def f (x: i64): i64 = map (i < x) { i";
  bad "def f (x: i64): i64 = y";
  bad "def f (x: @): i64 = x"

let test_comments_and_floats () =
  let p =
    parse_ok
      {| -- a comment
         def f (x: f64): f64 =
           -- another comment
           let y = x * 2.5 in
           y + 0.5 |}
  in
  Alcotest.(check bool) "floats" true
    (run p [ V.VFloat 2.0 ] = [ V.VFloat 5.5 ])

let tests =
  [
    Alcotest.test_case "scalar program" `Quick test_scalar_program;
    Alcotest.test_case "map" `Quick test_map_program;
    Alcotest.test_case "loop + if" `Quick test_loop_if;
    Alcotest.test_case "slices and update" `Quick test_slices_and_update;
    Alcotest.test_case "Fig. 1 from source text" `Quick test_fig1_pipeline;
    Alcotest.test_case "Fig. 1 right from source (negative)" `Quick
      test_fig1_right_source;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments and floats" `Quick test_comments_and_floats;
  ]

(* The complete NW benchmark from source text: parses, elaborates,
   short-circuits both wavefront halves, and matches the golden
   sequential DP. *)
let test_nw_from_source () =
  let p = Benchsuite.Nw_source.prog () in
  let compiled = Core.Pipeline.compile p in
  let st = compiled.Core.Pipeline.stats in
  Alcotest.(check bool) "both halves circuit" true
    (st.Core.Shortcircuit.succeeded >= 2);
  let q = 3 and b = 4 in
  let args = Benchsuite.Nw.small_args ~q ~b in
  let expect = Benchsuite.Nw.small_direct ~q ~b in
  (match Ir.Interp.run p args with
  | [ V.VArr out ] ->
      let d = V.float_data out in
      Array.iteri
        (fun i x ->
          if abs_float (x -. expect.(i)) > 1e-9 then
            Alcotest.failf "mismatch at %d: %g vs %g" i x expect.(i))
        d
  | _ -> Alcotest.fail "bad result shape");
  let r = Gpu.Exec.run ~mode:Gpu.Exec.Full compiled.Core.Pipeline.opt args in
  Alcotest.(check int) "opt copy-free" 0 r.Gpu.Exec.counters.Gpu.Device.copies

(* Elaboration is a pure function of the source: two elaborations of NW
   print the same IR as the benchmark's own [Nw.prog], and their
   certified compiles print the same variants and certificates. *)
let test_elab_repeatable () =
  let show = Ir.Pretty.prog_to_string in
  let p1 = Benchsuite.Nw_source.prog () in
  let p2 = Benchsuite.Nw_source.prog () in
  Alcotest.(check string) "same IR" (show p1) (show p2);
  Alcotest.(check string) "same IR as Nw.prog" (show Benchsuite.Nw.prog)
    (show p1);
  let compiled p =
    let c = Core.Pipeline.compile ~certify:true p in
    ( List.map show Core.Pipeline.[ c.unopt; c.opt; c.reuse; c.pack ],
      List.map
        (fun (_, r) -> Core.Json.to_string (Core.Certify.json_of_report r))
        c.Core.Pipeline.certs )
  in
  let v1, c1 = compiled p1 in
  let v2, c2 = compiled p2 in
  Alcotest.(check (list string)) "same variants" v1 v2;
  Alcotest.(check (list string)) "same certificates" c1 c2

(* Parameters keep their surface names, and a program's supply starts
   above their numeric suffixes: the index [t] of a map over a
   parameter [t_1] is a binder of its own. *)
let test_param_suffix () =
  let p =
    parse_ok {| def f (t_1: i64): [t_1]i64 = map (t < t_1) { t * t_1 } |}
  in
  (match run p [ V.VInt 4 ] with
  | [ V.VArr a ] ->
      Alcotest.(check (list int)) "t * t_1" [ 0; 4; 8; 12 ]
        (Array.to_list (V.int_data a))
  | _ -> Alcotest.fail "bad result");
  match p.Ir.Ast.body.stms with
  | [ { exp = EMap { nest = [ (t, _) ]; _ }; _ } ] ->
      Alcotest.(check string) "drawn above the parameter" "t_2" t
  | _ -> Alcotest.fail "expected one mapnest"

(* Operands elaborate left to right: [x * 2.0] is emitted before
   [y * 3.0]. *)
let test_left_to_right () =
  let p =
    parse_ok {| def f (x: f64, y: f64): f64 = x * 2.0 + y * 3.0 |}
  in
  (match p.Ir.Ast.body.stms with
  | { exp = EBin (Mul, Var "x", Float 2.0); _ } :: _ -> ()
  | s :: _ ->
      Alcotest.failf "first statement: %s"
        (Ir.Pretty.exp_to_string s.Ir.Ast.exp)
  | [] -> Alcotest.fail "no statements");
  Alcotest.(check bool) "2*2 + 1*3" true
    (run p [ V.VFloat 2.0; V.VFloat 1.0 ] = [ V.VFloat 7.0 ])

(* A loop over two accumulators, bound by a tuple let: the first n
   Fibonacci numbers' last pair, summed. *)
let test_tuple_loop () =
  let p =
    parse_ok
      {| def fib (n: i64): i64 =
           let (a, b) = loop (x = 0, y = 1) for i < n do { (y, x + y) } in
           a + b |}
  in
  let fib n =
    let rec go a b i = if i = n then a + b else go b (a + b) (i + 1) in
    go 0 1 0
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "n = %d" n) true
        (run p [ V.VInt n ] = [ V.VInt (fib n) ]))
    [ 0; 1; 5; 10 ]

(* A negated numeric literal and [inf] are literal atoms: no [neg]
   statement is emitted. *)
let test_literal_atoms () =
  let p = parse_ok {| def f (x: f64): f64 = min(x * -0.5, inf) |} in
  let exps = List.map (fun s -> s.Ir.Ast.exp) p.Ir.Ast.body.stms in
  Alcotest.(check bool) "no neg" false
    (List.exists (function Ir.Ast.EUn (Neg, _) -> true | _ -> false) exps);
  (match exps with
  | [ EBin (Mul, Var "x", Float h); EBin (Min, _, Float i) ] ->
      Alcotest.(check (float 0.)) "-0.5" (-0.5) h;
      Alcotest.(check (float 0.)) "inf" infinity i
  | _ -> Alcotest.fail "expected a multiplication and a min");
  Alcotest.(check bool) "value" true
    (run p [ V.VFloat 4.0 ] = [ V.VFloat (-2.0) ])

(* A let names the map it binds. *)
let test_let_names_map () =
  let p =
    parse_ok
      {| def f (n: i64): [n]i64 =
           let squares = map (i < n) { i * i } in
           squares |}
  in
  match p.Ir.Ast.body.stms with
  | [ { pat = [ { pv; _ } ]; exp = EMap _; _ } ] ->
      Alcotest.(check string) "named after its let" "squares"
        (Ir.Names.base pv)
  | _ -> Alcotest.fail "expected one mapnest"

(* A tuple's arity must match the loop's accumulators, both where the
   tuple let binds the loop and where the body returns. *)
let test_tuple_arity () =
  let rejects src =
    match Frontend.Elab.compile_string src with
    | exception Frontend.Elab.Elab_error _ -> ()
    | _ -> Alcotest.failf "accepted: %s" src
  in
  rejects
    {| def f (n: i64): i64 =
         let (a, b, c) = loop (x = 0, y = 1) for i < n do { (y, x) } in a |};
  rejects
    {| def f (n: i64): i64 =
         let (a, b) = loop (x = 0, y = 1) for i < n do { (y, x, y) } in a |};
  rejects
    {| def f (n: i64): i64 = loop (x = 0, y = 1) for i < n do { (y, x) } |}

let tests =
  tests
  @ [
      Alcotest.test_case "operands elaborate left to right" `Quick
        test_left_to_right;
      Alcotest.test_case "two-accumulator loop, tuple let" `Quick
        test_tuple_loop;
      Alcotest.test_case "negated literals and inf are atoms" `Quick
        test_literal_atoms;
      Alcotest.test_case "a let names the map it binds" `Quick
        test_let_names_map;
      Alcotest.test_case "tuple arity must match the loop" `Quick
        test_tuple_arity;
      Alcotest.test_case "NW from source text" `Quick test_nw_from_source;
      Alcotest.test_case "elaboration is repeatable" `Quick
        test_elab_repeatable;
      Alcotest.test_case "a parameter's suffix is never drawn" `Quick
        test_param_suffix;
    ]
