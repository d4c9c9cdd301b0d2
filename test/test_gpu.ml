(* Tests for the GPU cost-model executor: copy elision, location
   equality, cost-only vs full-mode counter agreement, the device time
   model, and the perfect-L2 read capping. *)

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

(* A name no binder defines raises only if the run evaluates it: the
   executor stages every operand before the run starts, and a lookup
   made then would reject the untaken arm too.  The program is
   test_ir's, built by hand since the checker refuses it. *)
let test_unbound_only_when_evaluated () =
  let let_ v t e = stm [ pat_elem v t ] e in
  let p =
    {
      name = "ghost";
      params = [ pat_elem "c" boolt ];
      body =
        block
          [
            let_ "r" i64
              (EIf
                 {
                   cond = Var "c";
                   tb =
                     block
                       [ let_ "g" i64 (EBin (Add, Var "ghost", Int 1)) ]
                       [ Var "g" ];
                   fb = block [] [ Int 2 ];
                 });
          ]
          [ Var "r" ];
      ret = [];
      ctx = Symalg.Prover.empty;
    }
  in
  List.iter
    (fun mode ->
      Alcotest.(check bool) "untaken arm" true
        ((Exec.run ~mode p [ Value.VBool false ]).Exec.results
        = [ Value.VInt 2 ]);
      Alcotest.check_raises "taken arm" (Exec.Exec_error "exec: unbound ghost")
        (fun () -> ignore (Exec.run ~mode p [ Value.VBool true ])))
    [ Exec.Full; Exec.Cost_only ]

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
    Alcotest.test_case "executor runs are pure functions of (program, args)"
      `Quick test_runs_pure;
    Alcotest.test_case "full-mode sqrt and log match the interpreter" `Quick
      test_full_sqrt_log;
  ]
