(* Tests for the GPU cost-model executor: copy elision, location
   equality, cost-only vs full-mode counter agreement, the device time
   model, the perfect-L2 read capping, slot resolution, the typed
   frames (every kind across every boundary, no allocation per loop
   iteration), loop pre-headers and the write stamp. *)

open Ir
open Ast
module P = Symalg.Poly
module B = Build
module Exec = Gpu.Exec
module Device = Gpu.Device

let c = P.const
let n = P.var "n"
let ctx_n = Symalg.Prover.add_range Symalg.Prover.empty "n" ~lo:(c 1) ()
let farr xs = Value.VArr (Value.of_floats [ Array.length xs ] xs)

(* A program with one deliberate copy (a view manifested with ECopy). *)
let copy_prog =
  B.prog "cp" ~ctx:ctx_n
    ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n ]) ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let r = B.bind b "r" (EReverse ("a", 0)) in
      [ Var (B.bind b "m" (ECopy r)) ])

let test_copy_counted () =
  let compiled = Core.Pipeline.compile copy_prog in
  let args = [ Value.VInt 8; farr (Array.init 8 float_of_int) ] in
  let r = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
  Alcotest.(check int) "one copy" 1 r.Exec.counters.Device.copies;
  Alcotest.(check (float 1.0)) "64 bytes" 64.0 r.Exec.counters.Device.copy_bytes;
  (* reversal itself is free: only the copy moves data *)
  match r.Exec.results with
  | [ Value.VArr out ] ->
      Alcotest.(check (list (float 0.)))
        "reversed data" [ 7.; 6.; 5.; 4.; 3.; 2.; 1.; 0. ]
        (Array.to_list (Value.float_data out))
  | _ -> Alcotest.fail "bad result"

let test_views_are_free () =
  let prog =
    B.prog "vw" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n; n ]) ]
      ~ret:[ f64 ]
      (fun b ->
        let t = B.bind b "t" (ETranspose ("a", [ 1; 0 ])) in
        let s =
          B.bind b "s" (ESlice (t, STriplet [ SFix P.one; B.all n ]))
        in
        [ B.index b s [ P.zero ] ])
  in
  let compiled = Core.Pipeline.compile prog in
  let args = [ Value.VInt 4; farr (Array.init 16 float_of_int) ] in
  let r = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
  (* one element read; no copies; no kernels *)
  Alcotest.(check int) "no copies" 0 r.Exec.counters.Device.copies;
  Alcotest.(check int) "no kernels" 0 r.Exec.counters.Device.kernels;
  (* transpose(a)[1][0] = a[0][1] = 1.0 *)
  Alcotest.(check bool) "value through views" true
    (r.Exec.results = [ Value.VFloat 1.0 ])

let test_cost_only_matches_full_bytes () =
  (* on a uniform mapnest, cost-only sampling must reproduce full-mode
     byte counts exactly *)
  let prog =
    B.prog "cm" ~ctx:ctx_n ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let iv = B.fresh b "i" in
        let ys =
          B.mapnest b "ys" [ (iv, n) ] (fun bb ->
              let x = B.index bb "a" [ P.var iv ] in
              [ B.fmul bb x x ])
        in
        [ Var ys ])
  in
  let compiled = Core.Pipeline.compile prog in
  let full =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt
      [ Value.VInt 32; farr (Array.init 32 float_of_int) ]
  in
  let cost =
    Exec.run ~mode:Exec.Cost_only compiled.Core.Pipeline.unopt
      [ Value.VInt 32; Value.VArr (Value.shell F64 [ 32 ]) ]
  in
  Alcotest.(check (float 1.))
    "reads agree" full.Exec.counters.Device.kernel_reads
    cost.Exec.counters.Device.kernel_reads;
  Alcotest.(check (float 1.))
    "writes agree" full.Exec.counters.Device.kernel_writes
    cost.Exec.counters.Device.kernel_writes;
  Alcotest.(check (float 1.))
    "flops agree" full.Exec.counters.Device.flops
    cost.Exec.counters.Device.flops

let test_l2_cap () =
  (* a kernel reading the same small array from every thread must be
     charged at most the array's footprint *)
  let prog =
    B.prog "l2" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "small" (arr F64 [ c 4 ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let iv = B.fresh b "i" in
        let ys =
          B.mapnest b "ys" [ (iv, n) ] (fun bb ->
              let a = B.index bb "small" [ P.zero ] in
              let d = B.index bb "small" [ P.one ] in
              [ B.fadd bb a d ])
        in
        [ Var ys ])
  in
  let compiled = Core.Pipeline.compile prog in
  let r =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt
      [ Value.VInt 100; farr [| 1.; 2.; 3.; 4. |] ]
  in
  (* 200 reads issued, but the block holds only 4 elements: <= 32 B *)
  Alcotest.(check bool) "reads capped at footprint" true
    (r.Exec.counters.Device.kernel_reads <= 32.0)

(* A kernel launched inside a kernel rebuilds the read tally when it
   scales its cost-only sample, and the outer thread's later reads must
   land in the rebuilt table.  The outer thread reads big[0] (8 B) and
   its inner kernel's thread reads big[1] (8 B); the inner kernel scales
   the tally by its 4 threads (64 B), the outer thread reads big[2]
   (72 B), and the outer kernel scales that by its 4 threads: 288 B,
   far under big's 8000 B footprint. *)
let test_nested_kernel_tally () =
  let prog =
    B.prog "nested" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "big" (arr F64 [ c 1000 ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let iv = B.fresh b "i" and jv = B.fresh b "j" in
        let ys =
          B.mapnest b "ys" [ (iv, n) ] (fun bb ->
              let x = B.index bb "big" [ P.zero ] in
              ignore
                (B.mapnest bb "zs" [ (jv, n) ] (fun cb ->
                     [ B.index cb "big" [ P.one ] ]));
              let w = B.index bb "big" [ c 2 ] in
              [ B.fadd bb x w ])
        in
        [ Var ys ])
  in
  let compiled = Core.Pipeline.compile prog in
  let r =
    Exec.run ~mode:Exec.Cost_only compiled.Core.Pipeline.unopt
      [ Value.VInt 4; Value.VArr (Value.shell F64 [ 1000 ]) ]
  in
  Alcotest.(check (float 0.)) "outer reads after the inner kernel" 288.
    r.Exec.counters.Device.kernel_reads

let test_time_model_monotone () =
  let c1 = Device.fresh_counters () in
  c1.Device.kernels <- 1;
  c1.Device.kernel_reads <- 1e6;
  let c2 = Device.clone c1 in
  c2.Device.copies <- 1;
  c2.Device.copy_bytes <- 1e6;
  let t1 = Device.time Device.a100 c1 and t2 = Device.time Device.a100 c2 in
  Alcotest.(check bool) "copies cost time" true (t2 > t1);
  Alcotest.(check bool) "A100 faster than MI100" true
    (Device.time Device.a100 c2 < Device.time Device.mi100 c2)

let test_elision_requires_same_location () =
  (* an update whose source was NOT rebased must copy *)
  let prog =
    B.prog "el" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n ]); pat_elem "x" (arr F64 [ n ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        [
          Var
            (B.bind b "r"
               (EUpdate { dst = "a"; slc = STriplet [ B.all n ]; src = SrcArr "x" }));
        ])
  in
  let compiled = Core.Pipeline.compile prog in
  (* x is a parameter: it cannot be rebased, so the copy stays *)
  let r =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.opt
      [ Value.VInt 4; farr [| 0.; 0.; 0.; 0. |]; farr [| 1.; 2.; 3.; 4. |] ]
  in
  Alcotest.(check int) "copy performed" 1 r.Exec.counters.Device.copies;
  match r.Exec.results with
  | [ Value.VArr out ] ->
      Alcotest.(check (list (float 0.))) "copied data" [ 1.; 2.; 3.; 4. ]
        (Array.to_list (Value.float_data out))
  | _ -> Alcotest.fail "bad result"

(* A reshape of a transposed (column-major) matrix cannot be expressed
   with one LMAD: the executor must unrank through the chained index
   function (Fig. 3's run-time divisions). *)
let test_multi_lmad_execution () =
  let prog =
    B.prog "ml" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n; n ]) ]
      ~ret:[ arr F64 [ P.mul n n ] ]
      (fun b ->
        let t = B.bind b "t" (ETranspose ("a", [ 1; 0 ])) in
        [ Var (B.bind b "flat" (EReshape (t, [ P.mul n n ]))) ])
  in
  let compiled = Core.Pipeline.compile prog in
  let args =
    [ Value.VInt 3; Value.VArr (Value.of_floats [ 3; 3 ] (Array.init 9 float_of_int)) ]
  in
  let expect = Interp.run compiled.Core.Pipeline.source args in
  let r = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
  Alcotest.(check bool) "unranked reads agree with interpreter" true
    (List.for_all2 Value.bit_equal expect r.Exec.results);
  (* the view itself must still be free *)
  Alcotest.(check int) "no copies" 0 r.Exec.counters.Device.copies

(* Simpson-sampled loops (cost-only, bound >= 24) must reproduce the
   exact counters of a full execution when per-iteration costs are (at
   most) quadratic in the index - NW's wavefront is linear. *)
let test_simpson_loop_sampling () =
  let q = 26 and b = 2 in
  let compiled = Core.Pipeline.compile Benchsuite.Nw.prog in
  let full =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt
      (Benchsuite.Nw.small_args ~q ~b)
  in
  let cost =
    Exec.run ~mode:Exec.Cost_only compiled.Core.Pipeline.unopt
      (Benchsuite.Nw.args ~q ~b ~penalty:10.0 ~shell:true)
  in
  let fc = full.Exec.counters and cc = cost.Exec.counters in
  Alcotest.(check int) "kernels agree" fc.Device.kernels cc.Device.kernels;
  Alcotest.(check int) "copies agree" fc.Device.copies cc.Device.copies;
  let close msg a bexp =
    let rel = Float.abs (a -. bexp) /. Float.max 1.0 bexp in
    if rel > 0.02 then Alcotest.failf "%s: %g vs %g (%.1f%%)" msg a bexp (100. *. rel)
  in
  close "copy bytes" cc.Device.copy_bytes fc.Device.copy_bytes;
  close "kernel writes" cc.Device.kernel_writes fc.Device.kernel_writes;
  close "flops" cc.Device.flops fc.Device.flops

(* ---------------------------------------------------------------- *)
(* Frame resolution: scoping and purity                              *)
(* ---------------------------------------------------------------- *)

(* The programs below bind exact names, so they can shadow on purpose
   and their traces name the same variables whatever ran before. *)
let bx b v e = ignore (B.bind_exact b v e)

let map_ b v nest f =
  let binds = List.map (fun (i, _) -> (i, i64)) nest in
  bx b v (EMap { nest; body = B.subblock b ~binds f })

let loop_ b v (p, t, init) ~var ~bound f =
  bx b v
    (ELoop
       {
         params = [ (pat_elem p t, init) ];
         var;
         bound;
         body = B.subblock b ~binds:[ (p, t); (var, i64) ] f;
       })

let arr_params names =
  pat_elem "n" i64 :: List.map (fun v -> pat_elem v (arr F64 [ n ])) names

let nested_loops =
  B.prog "nested_loops" ~ctx:ctx_n ~params:(arr_params [ "a" ])
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      loop_ b "res" ("acc", arr F64 [ n ], Var "a") ~var:"i" ~bound:(c 4)
        (fun bo ->
          loop_ bo "s" ("t", f64, Float 0.) ~var:"i" ~bound:(c 3) (fun bi ->
              bx bi "fi" (EUn (ToF64, Var "i"));
              bx bi "t2" (EBin (Add, Var "t", Var "fi"));
              [ Var "t2" ]);
          bx bo "fo" (EUn (ToF64, Var "i"));
          bx bo "fo10" (EBin (Mul, Var "fo", Float 10.));
          bx bo "u" (EBin (Add, Var "s", Var "fo10"));
          map_ bo "acc2" [ ("j", n) ] (fun bm ->
              bx bm "x" (EIndex ("acc", [ P.var "j" ]));
              bx bm "y" (EBin (Add, Var "x", Var "u"));
              [ Var "y" ]);
          [ Var "acc2" ]);
      [ Var "res" ])

let shadowed_scalar =
  B.prog "shadowed_scalar" ~ctx:ctx_n ~params:(arr_params [ "a" ])
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      bx b "x" (EAtom (Float 2.));
      map_ b "r" [ ("i", n) ] (fun bm ->
          bx bm "v" (EIndex ("a", [ P.var "i" ]));
          bx bm "y" (EBin (Mul, Var "v", Var "x"));
          bx bm "x" (EBin (Add, Var "y", Float 1.));
          bx bm "z" (EBin (Mul, Var "x", Var "x"));
          [ Var "z" ]);
      map_ b "w" [ ("k", n) ] (fun bm ->
          bx bm "rv" (EIndex ("r", [ P.var "k" ]));
          bx bm "q" (EBin (Add, Var "rv", Var "x"));
          [ Var "q" ]);
      [ Var "w" ])

let shadowed_array =
  B.prog "shadowed_array" ~ctx:ctx_n ~params:(arr_params [ "a"; "b" ])
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      map_ b "r" [ ("i", n) ] (fun bm ->
          bx bm "p" (EIndex ("a", [ P.var "i" ]));
          bx bm "a" (EBin (Add, Var "p", Float 1.));
          bx bm "q" (EIndex ("b", [ P.var "i" ]));
          bx bm "s" (EBin (Mul, Var "a", Var "q"));
          [ Var "s" ]);
      [ Var "r" ])

let reads_by_name =
  B.prog "reads_by_name" ~ctx:ctx_n ~params:(arr_params [ "a" ])
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      map_ b "zz" [ ("i", n) ] (fun bm ->
          bx bm "x" (EIndex ("a", [ P.var "i" ]));
          bx bm "y" (EBin (Mul, Var "x", Float 2.));
          [ Var "y" ]);
      map_ b "aa" [ ("i", n) ] (fun bm ->
          bx bm "x" (EIndex ("a", [ P.var "i" ]));
          bx bm "y" (EBin (Add, Var "x", Float 1.));
          [ Var "y" ]);
      map_ b "r" [ ("i", n) ] (fun bm ->
          bx bm "x" (EIndex ("zz", [ P.var "i" ]));
          bx bm "y" (EIndex ("aa", [ P.var "i" ]));
          bx bm "s" (EBin (Sub, Var "x", Var "y"));
          [ Var "s" ]);
      [ Var "r" ])

(* A trace's kernel footprints and last-use markers, one line each. *)
let footprint_summary (t : Core.Trace.t) =
  let fps l =
    String.concat ", " (List.map (Fmt.str "%a" Core.Trace.pp_footprint) l)
  in
  List.filter_map
    (function
      | Core.Trace.Kernel k ->
          Some
            (Fmt.str "%s: writes %s; reads %s" k.klabel (fps k.declared_writes)
               (fps k.declared_reads))
      | Core.Trace.Last_use { var; bid } ->
          Some (Fmt.str "last-use %s@blk%d" var bid)
      | _ -> None)
    (Core.Trace.events t)

(* Each variant of each program computes the interpreter's results, and
   its declared footprints and last-use markers are the ones the
   name-keyed environment produced: shadowed binders resolve to the
   innermost binding, a kernel's declared reads look names up where it
   launches (even a name its body rebinds) and stay sorted by name. *)
let test_scoping () =
  let args1 = [ Value.VInt 3; farr [| 1.; 2.; 3. |] ] in
  let args2 = args1 @ [ farr [| 4.; 5.; 6. |] ] in
  List.iter
    (fun (name, prog, args, expected) ->
      let cpl = Core.Pipeline.compile prog in
      let want = Interp.run prog args in
      List.iter
        (fun (variant, p) ->
          let r = Exec.run ~trace:true ~variant p args in
          let what = name ^ " " ^ variant in
          Alcotest.(check bool)
            (what ^ ": results = interpreter") true
            (List.for_all2 Value.bit_equal want r.Exec.results);
          Alcotest.(check (list string))
            (what ^ ": footprints and last uses")
            (snd (List.find (fun (vs, _) -> List.mem variant vs) expected))
            (footprint_summary (Option.get r.Exec.trace)))
        (Core.Pipeline.variants cpl))
    [
      ( "nested loops sharing i",
        nested_loops,
        args1,
        [
          ( [ "unopt"; "opt" ],
            [
              "acc2: writes acc2@blk2:0 + {3:1}; reads acc@blk1:0 + {3:1}";
              "last-use acc@blk1";
              "acc2: writes acc2@blk3:0 + {3:1}; reads acc@blk2:0 + {3:1}";
              "last-use acc@blk2";
              "acc2: writes acc2@blk4:0 + {3:1}; reads acc@blk3:0 + {3:1}";
              "last-use acc@blk3";
              "acc2: writes acc2@blk5:0 + {3:1}; reads acc@blk4:0 + {3:1}";
              "last-use acc@blk4";
            ] );
          ( [ "reuse"; "pack" ],
            [
              "acc2: writes acc2@blk2:0 + {3:1}; reads acc@blk1:0 + {3:1}";
              "acc2: writes acc2@blk1:0 + {3:1}; reads acc@blk2:0 + {3:1}";
              "acc2: writes acc2@blk2:0 + {3:1}; reads acc@blk1:0 + {3:1}";
              "acc2: writes acc2@blk1:0 + {3:1}; reads acc@blk2:0 + {3:1}";
            ] );
        ] );
      ( "inner let shadowing a scalar",
        shadowed_scalar,
        args1,
        [
          ( [ "unopt"; "opt"; "reuse" ],
            [
              "r: writes r@blk2:0 + {3:1}; reads a@blk1:0 + {3:1}";
              "last-use a@blk1";
              "w: writes w@blk3:0 + {3:1}; reads r@blk2:0 + {3:1}";
              "last-use r@blk2";
            ] );
          ( [ "pack" ],
            [
              "r: writes r@blk2:0 + {3:1}; reads a@blk1:0 + {3:1}";
              "last-use a@blk1";
              "w: writes w@blk2:3 + {3:1}; reads r@blk2:0 + {3:1}";
            ] );
        ] );
      ( "kernel rebinding an array it reads",
        shadowed_array,
        args2,
        [
          ( [ "unopt"; "opt"; "reuse"; "pack" ],
            [
              "r: writes r@blk3:0 + {3:1}; reads a@blk1:0 + {3:1}, b@blk2:0 \
               + {3:1}";
              "last-use b@blk2";
            ] );
        ] );
      ( "declared reads sorted by name",
        reads_by_name,
        args1,
        [
          ( [ "unopt"; "opt"; "reuse" ],
            [
              "zz: writes zz@blk2:0 + {3:1}; reads a@blk1:0 + {3:1}";
              "aa: writes aa@blk3:0 + {3:1}; reads a@blk1:0 + {3:1}";
              "last-use a@blk1";
              "r: writes r@blk4:0 + {3:1}; reads aa@blk3:0 + {3:1}, zz@blk2:0 \
               + {3:1}";
              "last-use aa@blk3";
              "last-use zz@blk2";
            ] );
          ( [ "pack" ],
            [
              "zz: writes zz@blk2:0 + {3:1}; reads a@blk1:0 + {3:1}";
              "aa: writes aa@blk2:3 + {3:1}; reads a@blk1:0 + {3:1}";
              "last-use a@blk1";
              "r: writes r@blk2:6 + {3:1}; reads aa@blk2:3 + {3:1}, zz@blk2:0 \
               + {3:1}";
            ] );
        ] );
    ]

(* Block ids are numbered per run: running one program twice in one
   process gives byte-identical traces. *)
let test_runs_pure () =
  List.iter
    (fun { Benchsuite.Runner.name; prog; small_args; _ } ->
      let pack = (Core.Pipeline.compile prog).Core.Pipeline.pack in
      let args = small_args () in
      let trace () =
        let r = Exec.run ~trace:true ~variant:"pack" pack args in
        Core.Json.to_string (Core.Trace.to_json (Option.get r.Exec.trace))
      in
      let first = trace () in
      Alcotest.(check string) (name ^ ": second run's trace") first (trace ()))
    Benchsuite.Suite.all

(* A name no binder defines, or operands of the wrong kinds, raise only
   if the run evaluates them: the executor stages every operand before
   the run starts, and a lookup or kind check made then would reject
   the untaken arm too.  The first program is test_ir's; both are built
   by hand since the checker refuses them. *)
let test_unbound_only_when_evaluated () =
  let let_ v t e = stm [ pat_elem v t ] e in
  let prog name arm =
    {
      name;
      params = [ pat_elem "c" boolt ];
      body =
        block
          [
            let_ "r" i64
              (EIf
                 {
                   cond = Var "c";
                   tb = block arm [ Var "g" ];
                   fb = block [] [ Int 2 ];
                 });
          ]
          [ Var "r" ];
      ret = [];
      ctx = Symalg.Prover.empty;
    }
  in
  List.iter
    (fun (p, msg) ->
      List.iter
        (fun mode ->
          Alcotest.(check bool) "untaken arm" true
            ((Exec.run ~mode p [ Value.VBool false ]).Exec.results
            = [ Value.VInt 2 ]);
          Alcotest.check_raises "taken arm" (Exec.Exec_error msg) (fun () ->
              ignore (Exec.run ~mode p [ Value.VBool true ])))
        [ Exec.Full; Exec.Cost_only ])
    [
      ( prog "ghost" [ let_ "g" i64 (EBin (Add, Var "ghost", Int 1)) ],
        "exec: unbound ghost" );
      ( prog "mixed"
          [
            let_ "x" i64 (EAtom (Int 1));
            let_ "y" f64 (EAtom (Float 2.));
            let_ "g" i64 (EBin (Add, Var "x", Var "y"));
          ],
        "exec: ill-typed binop" );
    ]

(* ---------------------------------------------------------------- *)
(* Typed frames                                                      *)
(* ---------------------------------------------------------------- *)

let m = P.var "m"
let ctx_nm = Symalg.Prover.add_range ctx_n "m" ~lo:(c 1) ()

(* One kernel thread runs a loop that carries an i64, so cost-only runs
   never sample it, and a row of four floats: each iteration reads two
   cells, does f64 arithmetic and updates a third.  It also reads [xs]
   through three index polynomials whose loop-invariant parts the
   loop's pre-header sums, leaving the invariant slot plus the counter
   ([t*m + i]), plus a multiple of it ([t*m + 1 + 2*i]) and plus a
   multiple of a product with it ([t*m + m + 3*t*i]). *)
let alloc_gate =
  B.prog "alloc_gate" ~ctx:ctx_nm
    ~params:[ pat_elem "m" i64; pat_elem "xs" (arr F64 [ P.mul (c 2) m ]) ]
    ~ret:[ arr F64 [ c 1 ] ]
    (fun b ->
      let t = B.fresh b "t" in
      let ys =
        B.mapnest b "ys" [ (t, c 1) ] (fun bt ->
            let row = B.bind bt "row" (EReplicate ([ c 4 ], Float 1.)) in
            let k = B.fresh bt "k" and r = B.fresh bt "r" in
            let i = B.fresh bt "i" in
            match
              B.loop bt "l"
                [ (k, i64, Int 0); (r, arr F64 [ c 4 ], Var row) ]
                ~var:i ~bound:m
                (fun bl ->
                  let x = B.index bl r [ c 0 ] in
                  let y = B.index bl r [ c 1 ] in
                  let ( + ) = P.add and ( * ) = P.mul in
                  let t = P.var t and i = P.var i in
                  let ws =
                    List.map
                      (fun ix -> B.index bl "xs" [ ix ])
                      [
                        (t * m) + i;
                        (t * m) + c 1 + (c 2 * i);
                        (t * m) + m + (c 3 * t * i);
                      ]
                  in
                  let z =
                    List.fold_left (B.fadd bl)
                      (B.fadd bl (B.fmul bl x (Float 0.5)) y)
                      ws
                  in
                  let r2 =
                    B.bind bl "r2"
                      (EUpdate
                         {
                           dst = r;
                           slc = STriplet [ SFix (c 2) ];
                           src = SrcScalar z;
                         })
                  in
                  [ B.binop bl Add (Var k) (Int 1); Var r2 ])
            with
            | [ _; rs ] -> [ B.index bt rs [ c 2 ] ]
            | _ -> Alcotest.fail "loop results")
      in
      [ Var ys ])

(* The executor's per-statement path allocates nothing: differencing
   runs at two loop bounds cancels staging, the pre-header and fixed
   costs, and what is left is at most one minor word per iteration, in
   both modes and every variant.  Six flops per iteration show the loop
   ran whole. *)
let test_alloc_free_iterations () =
  let compiled = Core.Pipeline.compile alloc_gate in
  List.iter
    (fun (v, p) ->
      List.iter
        (fun (mode, mname) ->
          let run bound =
            let args =
              [
                Value.VInt bound;
                (match mode with
                | Exec.Full -> farr (Array.make (2 * bound) 1.)
                | Exec.Cost_only -> Value.VArr (Value.shell F64 [ 2 * bound ]));
              ]
            in
            let w0 = Gc.minor_words () in
            let r = Exec.run ~mode p args in
            (Gc.minor_words () -. w0, r.Exec.counters.Device.flops)
          in
          ignore (run 10);
          let w1, f1 = run 10 and w2, f2 = run 2010 in
          let what = v ^ " " ^ mname in
          Alcotest.(check (float 0.)) (what ^ ": flops per iteration") 6.
            ((f2 -. f1) /. 2000.);
          let per = (w2 -. w1) /. 2000. in
          if per > 1. then
            Alcotest.failf "%s: %.2f minor words per iteration" what per)
        [ (Exec.Full, "full"); (Exec.Cost_only, "cost-only") ])
    (Core.Pipeline.variants compiled)

(* ---------------------------------------------------------------- *)
(* Loop pre-headers and the write stamp                              *)
(* ---------------------------------------------------------------- *)

(* Each thread [t] runs an outer loop over [o] (bound m) and in it an
   inner loop over [j] (bound n), each carrying one f64, so cost-only
   runs sample the inner loop from n = 24.  The inner loop reads [xs]
   through one index polynomial of each shape its pre-header leaves:
   the invariant slot plus [j] ([t*n + j]), plus a multiple of [j] ([o +
   2*j], whose invariant part is the bare slot [o]), plus a multiple of
   a product with [j] ([o*n*n + j*n + t], where [j*n] mixes a variant
   and an invariant factor), and plus two variant monomials ([o*n + t +
   j*n + j]).  [xs] holds five times the cells the loops read, so the
   perfect-L2 cap leaves the reads of a kernel uncapped. *)
let preheader =
  B.prog "preheader" ~ctx:ctx_nm
    ~params:
      [
        pat_elem "n" i64;
        pat_elem "m" i64;
        pat_elem "xs" (arr F64 [ P.mul (c 5) (P.mul m (P.mul n n)) ]);
      ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let results = List.map (fun r -> Var r) in
      let t = B.fresh b "t" in
      let ys =
        B.mapnest b "ys" [ (t, n) ] (fun bt ->
            let o = B.fresh bt "o" and s = B.fresh bt "s" in
            results
              (B.loop bt "lo" [ (s, f64, Float 0.) ] ~var:o ~bound:m (fun bo ->
                   let j = B.fresh bo "j" and u = B.fresh bo "u" in
                   results
                     (B.loop bo "li" [ (u, f64, Var s) ] ~var:j ~bound:n
                        (fun bi ->
                          let ( + ) = P.add and ( * ) = P.mul in
                          let t = P.var t and o = P.var o and j = P.var j in
                          [
                            List.fold_left
                              (fun acc ix ->
                                B.fadd bi acc (B.index bi "xs" [ ix ]))
                              (Var u)
                              [
                                (t * n) + j;
                                o + (c 2 * j);
                                (o * n * n) + (j * n) + t;
                                (o * n) + t + (j * n) + j;
                              ];
                          ])))))
      in
      [ Var ys ])

(* A loop whose body evaluates [ghost*n + n*n + j], [ghost] bound
   nowhere, [k] times. *)
let ghost_loop =
  let let_ v t e = stm [ pat_elem v t ] e in
  {
    name = "ghost_loop";
    params = [ pat_elem "n" i64; pat_elem "k" i64 ];
    body =
      block
        [
          let_ "r" i64
            (ELoop
               {
                 params = [ (pat_elem "acc" i64, Int 0) ];
                 var = "j";
                 bound = P.var "k";
                 body =
                   block
                     [
                       let_ "x" i64
                         (EIdx
                            (P.add
                               (P.add (P.mul (P.var "ghost") n) (P.mul n n))
                               (P.var "j")));
                     ]
                     [ Var "x" ];
               });
        ]
        [ Var "r" ];
    ret = [];
    ctx = Symalg.Prover.empty;
  }

(* A loop's pre-header sums the invariant part of each index polynomial
   in its body once per execution of the loop, not once per run: every
   variant computes the interpreter's results when the outer loop and
   the threads move the invariant parts between entries of the inner
   loop, at n = 3 and at n = 24, where cost-only runs sample it; the
   cost-only counters are the ones the executor gave before it hoisted
   anything (kernel reads, kernel writes and flops).  A polynomial with
   an unbound factor is not split, so it raises only when the body
   evaluates it: a zero-trip loop runs, a one-trip loop raises. *)
let test_preheader () =
  let compiled = Core.Pipeline.compile preheader in
  let args ~n ~cost =
    let size = 5 * 2 * n * n in
    [
      Value.VInt n;
      Value.VInt 2;
      (if cost then Value.VArr (Value.shell F64 [ size ])
       else
         farr
           (Array.init size (fun i -> float_of_int ((i * 7) mod 11) +. 0.5)));
    ]
  in
  List.iter
    (fun (n, pinned) ->
      let want = Interp.run preheader (args ~n ~cost:false) in
      List.iter
        (fun (v, p) ->
          let what = Printf.sprintf "%s at n = %d" v n in
          let r = Exec.run ~mode:Exec.Full p (args ~n ~cost:false) in
          Alcotest.(check bool)
            (what ^ ": results = interpreter")
            true
            (List.for_all2 Value.bit_equal want r.Exec.results);
          let cc =
            (Exec.run ~mode:Exec.Cost_only p (args ~n ~cost:true)).Exec.counters
          in
          Alcotest.(check (list (float 0.)))
            (what ^ ": cost-only reads, writes and flops")
            pinned
            Device.[ cc.kernel_reads; cc.kernel_writes; cc.flops ])
        (Core.Pipeline.variants compiled))
    [ (3, [ 576.; 24.; 72. ]); (24, [ 36864.; 192.; 4608. ]) ];
  List.iter
    (fun mode ->
      let run k = Exec.run ~mode ghost_loop [ Value.VInt 3; Value.VInt k ] in
      Alcotest.(check bool) "zero trips" true
        ((run 0).Exec.results = [ Value.VInt 0 ]);
      Alcotest.check_raises "one trip" (Exec.Exec_error "exec: unbound ghost")
        (fun () -> ignore (run 1)))
    [ Exec.Full; Exec.Cost_only ]

(* Each thread [i] of the first kernel copies row [i] of [xs] into a row
   of its own, writes the row's cell 1, reads its cell 0, which the
   copy filled but no element write touched (charged), re-reads cell 1
   (its own write: free) and writes cell 0; the second kernel reads
   every row (charged).  Short-circuiting puts the rows in the first
   kernel's output, so there the threads write and read cells of one
   block. *)
let stamp =
  B.prog "stamp" ~ctx:ctx_n
    ~params:[ pat_elem "n" i64; pat_elem "xs" (arr F64 [ n; c 2 ]) ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let i = B.fresh b "i" in
      let rows =
        B.mapnest b "rows" [ (i, n) ] (fun bt ->
            let xi =
              B.bind bt "xi"
                (ESlice ("xs", STriplet [ SFix (P.var i); B.all (c 2) ]))
            in
            let row = B.bind bt "row" (ECopy xi) in
            let set dst k x =
              B.bind bt "row"
                (EUpdate
                   { dst; slc = STriplet [ SFix (c k) ]; src = SrcScalar x })
            in
            let row = set row 1 (B.unop bt ToF64 (B.idx bt (P.var i))) in
            let a = B.index bt row [ c 0 ] and w = B.index bt row [ c 1 ] in
            [ Var (set row 0 (B.fadd bt a w)) ])
      in
      let j = B.fresh b "j" in
      let sums =
        B.mapnest b "sums" [ (j, n) ] (fun bt ->
            [
              B.fadd bt
                (B.index bt rows [ P.var j; c 0 ])
                (B.index bt rows [ P.var j; c 1 ]);
            ])
      in
      [ Var sums ])

(* A read of a block the thread in flight never wrote skips the probe of
   its written cells, which could only miss: every variant's kernel
   reads plus writes are the bytes the executor charged before it
   stamped blocks, in both modes, and Full mode computes the
   interpreter's results. *)
let test_write_stamp () =
  let compiled = Core.Pipeline.compile stamp in
  let n = 6 in
  let xs = Value.of_floats [ n; 2 ] (Array.init (2 * n) float_of_int) in
  let full = [ Value.VInt n; Value.VArr xs ]
  and cost = [ Value.VInt n; Value.VArr (Value.shell F64 [ n; 2 ]) ] in
  let want = Interp.run stamp full in
  List.iter
    (fun (v, p) ->
      let r = Exec.run ~mode:Exec.Full p full in
      Alcotest.(check bool)
        (v ^ ": results = interpreter")
        true
        (List.for_all2 Value.bit_equal want r.Exec.results);
      let rw (r : Exec.report) =
        let cs = r.Exec.counters in
        cs.Device.kernel_reads +. cs.Device.kernel_writes
      in
      Alcotest.(check (list (float 0.)))
        (v ^ ": kernel R+W, full and cost-only")
        (if v = "unopt" then [ 624.; 544. ] else [ 480.; 480. ])
        [ rw r; rw (Exec.run ~mode:Exec.Cost_only p cost) ])
    (Core.Pipeline.variants compiled)

(* Every typed boundary: a mapnest writing per-thread i64, f64 and bool
   results; a loop carrying an i64, an f64, a bool and an array, whose
   body takes an [if] returning an f64, an i64 and a bool; and a loop
   carrying an f64, a bool and an array but no i64, which cost-only runs
   sample from a bound of 24. *)
let typed_mix =
  B.prog "typed_mix" ~ctx:ctx_nm
    ~params:
      [ pat_elem "n" i64; pat_elem "m" i64; pat_elem "a" (arr F64 [ n ]) ]
    ~ret:
      [
        i64; f64; boolt; arr F64 [ n ]; arr I64 [ n ]; arr Bool [ n ]; f64;
        boolt; arr F64 [ n ];
      ]
    (fun b ->
      let iv = B.fresh b "i" in
      let ks, ys, ps =
        match
          B.mapnest_multi b [ (iv, n) ] (fun bt ->
              let x = B.index bt "a" [ P.var iv ] in
              let k = B.binop bt Mul (Var iv) (Int 3) in
              let y = B.fadd bt (B.fmul bt x (Float 0.5)) (Float 1.) in
              [ k; y; B.cmp bt CLt x (Float 2.) ])
        with
        | [ k; y; p ] -> (k, y, p)
        | _ -> Alcotest.fail "mapnest results"
      in
      let acc0 = B.bind b "acc0" (ECopy ys) in
      let cnt = B.fresh b "cnt" and sum = B.fresh b "sum" in
      let flag = B.fresh b "flag" and acc = B.fresh b "acc" in
      let j = B.fresh b "j" in
      let l1 =
        B.loop b "l1"
          [
            (cnt, i64, Int 0);
            (sum, f64, Float 0.);
            (flag, boolt, Bool false);
            (acc, arr F64 [ n ], Var acc0);
          ]
          ~var:j ~bound:n
          (fun bl ->
            let v = B.index bl acc [ P.var j ] in
            let kj = B.index bl ks [ P.var j ] in
            let pj = B.index bl ps [ P.var j ] in
            let sum2 = B.fadd bl (Var sum) v in
            let flag2 = B.binop bl Or (Var flag) pj in
            let tb =
              B.subblock bl (fun bt -> [ sum2; kj; B.unop bt Not (Var flag) ])
            in
            let fb =
              B.subblock bl (fun bf ->
                  [ v; B.binop bf Sub (Int 0) kj; Bool true ])
            in
            match B.bind_multi bl (EIf { cond = flag2; tb; fb }) with
            | [ w; q; e ] ->
                let acc2 =
                  B.bind bl "acc2"
                    (EUpdate
                       {
                         dst = acc;
                         slc = STriplet [ SFix (P.var j) ];
                         src = SrcScalar (Var w);
                       })
                in
                [ B.binop bl Add (Var cnt) (Var q); sum2; Var e; Var acc2 ]
            | _ -> Alcotest.fail "if results")
      in
      let z0 = B.bind b "z0" (ECopy "a") in
      let s = B.fresh b "s" and f = B.fresh b "f" and z = B.fresh b "z" in
      let j2 = B.fresh b "j" in
      let l2 =
        B.loop b "l2"
          [
            (s, f64, Float 0.);
            (f, boolt, Bool true);
            (z, arr F64 [ n ], Var z0);
          ]
          ~var:j2 ~bound:m
          (fun bl ->
            let iv2 = B.fresh bl "i" in
            let z2 =
              B.mapnest bl "z2" [ (iv2, n) ] (fun bt ->
                  [ B.fadd bt (B.index bt z [ P.var iv2 ]) (Float 1.) ])
            in
            [ B.fadd bl (Var s) (Float 0.25); B.unop bl Not (Var f); Var z2 ])
      in
      List.map (fun v -> Var v) (l1 @ [ ks; ps ] @ l2))

(* Full mode moves every kind across every boundary bit for bit as the
   interpreter computes it; the carried bools toggle, so a bool a move
   drops shows in the results.  Cost-only runs the second loop's three
   Simpson samples from its initial values, so its scalar results are
   one iteration's (0.25 and false), and its counters agree with Full
   mode's: the kernel count exactly, flops and writes to the bit. *)
let test_typed_boundaries () =
  let compiled = Core.Pipeline.compile typed_mix in
  let args m =
    [ Value.VInt 5; Value.VInt m; farr [| 0.5; 3.; 2.; 4.; -2. |] ]
  in
  let want = Interp.run typed_mix (args 4) in
  List.iter
    (fun (v, p) ->
      let r = Exec.run ~mode:Exec.Full p (args 4) in
      Alcotest.(check bool)
        (v ^ ": results = interpreter")
        true
        (List.for_all2 Value.bit_equal want r.Exec.results);
      let full = Exec.run ~mode:Exec.Full p (args 30)
      and cost = Exec.run ~mode:Exec.Cost_only p (args 30) in
      (match List.filteri (fun i _ -> i = 6 || i = 7) cost.Exec.results with
      | [ s; f ] ->
          Alcotest.(check bool)
            (v ^ ": sampled loop's f64 and bool")
            true
            (s = Value.VFloat 0.25 && f = Value.VBool false)
      | _ -> Alcotest.fail "results");
      let fc = full.Exec.counters and cc = cost.Exec.counters in
      Alcotest.(check int)
        (v ^ ": kernels") fc.Device.kernels cc.Device.kernels;
      Alcotest.(check (float 0.))
        (v ^ ": flops") fc.Device.flops cc.Device.flops;
      Alcotest.(check (float 0.))
        (v ^ ": kernel writes") fc.Device.kernel_writes
        cc.Device.kernel_writes)
    (Core.Pipeline.variants compiled)

(* Full-mode sqrt and log give the reference interpreter's results bit
   for bit: NaN for sqrt (-1) and log (-1), -inf for log 0.  Only
   cost-only runs, whose reads return placeholders, are tolerant. *)
let test_full_sqrt_log () =
  let prog =
    B.prog "sl" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n ]) ]
      ~ret:[ arr F64 [ n ]; arr F64 [ n ] ]
      (fun b ->
        let iv = B.fresh b "i" in
        List.map
          (fun v -> Var v)
          (B.mapnest_multi b [ (iv, n) ] (fun bb ->
               let x = B.index bb "a" [ P.var iv ] in
               [ B.unop bb Sqrt x; B.unop bb Log x ])))
  in
  let args = [ Value.VInt 3; farr [| -1.; 0.; 4. |] ] in
  let bits = function
    | Value.VArr a ->
        Array.to_list (Array.map Int64.bits_of_float (Value.float_data a))
    | _ -> Alcotest.fail "array result"
  in
  let compiled = Core.Pipeline.compile prog in
  let expect = List.map bits (Interp.run compiled.Core.Pipeline.source args) in
  List.iter
    (fun (v, p) ->
      let r = Exec.run ~mode:Exec.Full p args in
      Alcotest.(check (list (list int64)))
        (v ^ ": sqrt and log bits") expect
        (List.map bits r.Exec.results))
    (Core.Pipeline.variants compiled)

(* A mapnest over an empty index space still has its statement's type:
   a scalar body gives i64[0], a [3]f64 body f64[0,3] and its transpose
   f64[3,0].  The interpreter and every Full-mode variant agree bit for
   bit, on the empty space and on a non-empty one. *)
let test_empty_mapnest () =
  let prog =
    B.prog "empty"
      ~params:[ pat_elem "n" i64 ]
      ~ret:[ arr I64 [ n ]; arr F64 [ n; c 3 ]; arr F64 [ c 3; n ] ]
      (fun b ->
        let i = B.fresh b "i" in
        let ys =
          B.mapnest b "ys" [ (i, n) ] (fun bb ->
              [ B.binop bb Mul (B.idx bb (P.var i)) (Int 2) ])
        in
        let j = B.fresh b "j" in
        let zs =
          B.mapnest b "zs" [ (j, n) ] (fun bb ->
              let x = B.unop bb ToF64 (B.idx bb (P.var j)) in
              [ Var (B.bind bb "row" (EReplicate ([ c 3 ], x))) ])
        in
        [ Var ys; Var zs; Var (B.bind b "t" (ETranspose (zs, [ 1; 0 ]))) ])
  in
  let compiled = Core.Pipeline.compile prog in
  List.iter
    (fun size ->
      let args = [ Value.VInt size ] in
      let expect = Interp.run prog args in
      if size = 0 then
        Alcotest.(check (list string))
          "types" [ "i64[0]"; "f64[0,3]"; "f64[3,0]" ]
          (List.map
             (function
               | Value.VArr { elt; shape; _ } ->
                   Fmt.str "%a[%s]" Pretty.pp_sct elt
                     (String.concat "," (List.map string_of_int shape))
               | _ -> "scalar")
             expect);
      List.iter
        (fun (v, p) ->
          let r = Exec.run ~mode:Exec.Full p args in
          Alcotest.(check bool)
            (Printf.sprintf "%s at n = %d: bit-equal" v size)
            true
            (List.for_all2 Value.bit_equal expect r.Exec.results))
        (Core.Pipeline.variants compiled))
    [ 0; 2 ]

let tests =
  [
    Alcotest.test_case "multi-LMAD execution" `Quick test_multi_lmad_execution;
    Alcotest.test_case "empty mapnest: interpreter = executor" `Quick
      test_empty_mapnest;
    Alcotest.test_case "Simpson loop sampling = full" `Quick
      test_simpson_loop_sampling;
    Alcotest.test_case "copies counted and performed" `Quick test_copy_counted;
    Alcotest.test_case "views are free" `Quick test_views_are_free;
    Alcotest.test_case "cost-only = full (uniform kernel)" `Quick
      test_cost_only_matches_full_bytes;
    Alcotest.test_case "perfect-L2 read cap" `Quick test_l2_cap;
    Alcotest.test_case "nested kernel: reads land in the rebuilt tally" `Quick
      test_nested_kernel_tally;
    Alcotest.test_case "time model monotone" `Quick test_time_model_monotone;
    Alcotest.test_case "elision requires same location" `Quick
      test_elision_requires_same_location;
    Alcotest.test_case "resolver scoping matches the named environment"
      `Quick test_scoping;
    Alcotest.test_case "unbound name raises only when evaluated" `Quick
      test_unbound_only_when_evaluated;
    Alcotest.test_case "allocation gate: no minor words per loop iteration"
      `Quick test_alloc_free_iterations;
    Alcotest.test_case "typed frames: every boundary = interpreter" `Quick
      test_typed_boundaries;
    Alcotest.test_case "loop pre-header: invariant index parts per loop entry"
      `Quick test_preheader;
    Alcotest.test_case
      "write stamp: own-write probes only where the thread wrote" `Quick
      test_write_stamp;
    Alcotest.test_case "executor runs are pure functions of (program, args)"
      `Quick test_runs_pure;
    Alcotest.test_case "full-mode sqrt and log match the interpreter" `Quick
      test_full_sqrt_log;
  ]
