(* LocVolCalib (FinPar), Table VI: local-volatility calibration -
   a batch of independent Crank-Nicolson-style solves, one per option.

   Each thread owns a price vector of length numX and advances it
   through numT implicit timesteps, each solved with the Thomas
   algorithm over per-thread coefficient arrays.  The final vector (and
   the loop-carried state, which aliases it) short-circuits into the
   batch result matrix (Fig. 6b - the paper names LocVolCalib together
   with LBM as the benchmarks where the implicit mapnest circuit has
   high impact); the tridiagonal arithmetic dominates, giving the
   moderate 1.04x - 1.12x of Table VI. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Ir.Build
module Value = Ir.Value

let ctx0 =
  Pr.add_range
    (Pr.add_range Pr.empty "numo" ~lo:(P.const 1) ())
    "numx" ~lo:(P.const 3) ()

let alpha = 0.45 (* off-diagonal weight; diagonally dominant system *)

let set1 b ~dst ~i v =
  B.bind b (dst ^ "'")
    (EUpdate { dst; slc = STriplet [ SFix i ]; src = SrcScalar v })

(* One implicit timestep: a Thomas solve of the tridiagonal system with
   off-diagonal weight [w] (lower/upper coefficients [-w], diagonal
   [1 + 2w]) over the price vector [u], producing a fresh vector.  [w]
   is a compile-time constant, so the damped startup step and the
   regular Crank-Nicolson step are two instantiations of this
   template. *)
let thomas_step sb ~u ~w =
  let numx = P.var "numx" in
  let vec = arr F64 [ numx ] in
  let a = -.w and cc = -.w in
  let dg = 1.0 +. (2.0 *. w) in
  (* forward sweep *)
  let cp0 = B.bind sb "cp0" (EScratch (F64, [ numx ])) in
  let dp0 = B.bind sb "dp0" (EScratch (F64, [ numx ])) in
  let cp1 = set1 sb ~dst:cp0 ~i:P.zero (Float (cc /. dg)) in
  let dp1 =
    set1 sb ~dst:dp0 ~i:P.zero
      (B.fdiv sb (B.index sb u [ P.zero ]) (Float dg))
  in
  let cpn = B.fresh sb "cp" and dpn = B.fresh sb "dp" in
  let fw = B.fresh sb "fx" in
  let sweep =
    B.loop sb "fwd"
      [ (cpn, vec, Var cp1); (dpn, vec, Var dp1) ]
      ~var:fw
      ~bound:(P.sub numx P.one)
      (fun fb ->
        let x = P.add (P.var fw) P.one in
        let cprev = B.index fb cpn [ P.sub x P.one ] in
        let dprev = B.index fb dpn [ P.sub x P.one ] in
        let m =
          B.fdiv fb (Float 1.0)
            (B.fsub fb (Float dg) (B.fmul fb (Float a) cprev))
        in
        let cp' = set1 fb ~dst:cpn ~i:x (B.fmul fb (Float cc) m) in
        let ux = B.index fb u [ x ] in
        let dp' =
          set1 fb ~dst:dpn ~i:x
            (B.fmul fb (B.fsub fb ux (B.fmul fb (Float a) dprev)) m)
        in
        [ Var cp'; Var dp' ])
  in
  let cpf, dpf =
    match sweep with [ c; d ] -> (c, d) | _ -> assert false
  in
  (* backward substitution into a fresh vector *)
  let un0 = B.bind sb "un0" (EScratch (F64, [ numx ])) in
  let un1 =
    set1 sb ~dst:un0 ~i:(P.sub numx P.one)
      (B.index sb dpf [ P.sub numx P.one ])
  in
  B.loop1 sb "bwd" vec (Var un1)
    ~bound:(P.sub numx P.one)
    (fun wb ~param ~i:t ->
      let x = P.sub (P.sub numx (P.const 2)) t in
      let up1 = B.index wb param [ P.add x P.one ] in
      let v =
        B.fsub wb
          (B.index wb dpf [ x ])
          (B.fmul wb (B.index wb cpf [ x ]) up1)
      in
      Var (set1 wb ~dst:param ~i:x v))

let prog : prog =
  let numo = P.var "numo"
  and numx = P.var "numx"
  and numt = P.var "numt" in
  let vec = arr F64 [ numx ] in
  B.prog "locvolcalib" ~ctx:ctx0
    ~params:[ pat_elem "numo" i64; pat_elem "numx" i64; pat_elem "numt" i64 ]
    ~ret:[ arr F64 [ numo; numx ] ]
    (fun bb ->
      let ov = B.fresh bb "o" in
      let result =
        B.mapnest bb "result"
          [ (ov, numo) ]
          (fun tb ->
            let o = P.var ov in
            (* initial condition parameterized by the option index *)
            let u0 = B.bind tb "u0" (EScratch (F64, [ numx ])) in
            let u_init =
              B.loop1 tb "init" vec (Var u0) ~bound:numx
                (fun ib ~param ~i:x ->
                  let xo =
                    B.binop ib Rem
                      (B.binop ib Add (B.idx ib x) (B.idx ib o))
                      (B.idx ib numx)
                  in
                  let v =
                    B.fadd ib (Float 1.0)
                      (B.fmul ib (B.unop ib ToF64 xo) (Float 0.001))
                  in
                  Var (set1 ib ~dst:param ~i:x v))
            in
            (* numT implicit steps, each one Thomas solve.  Rannacher
               startup: the first step is damped (half weight), later
               steps use the full Crank-Nicolson weight.  Both arms are
               complete solves with arm-local coefficient vectors, so
               the reuse pass's hoist-through-if-arms strategy pairs
               the two arms' scratch allocations and lifts them above
               the conditional. *)
            let final =
              B.loop1 tb "time" vec (Var u_init) ~bound:numt
                (fun sb ~param:u ~i:t ->
                  let first =
                    B.cmp sb CEq (B.idx sb t) (B.idx sb P.zero)
                  in
                  let stepped =
                    B.if_ sb "ustep" first
                      (fun ab -> [ Var (thomas_step ab ~u ~w:(0.5 *. alpha)) ])
                      (fun ab -> [ Var (thomas_step ab ~u ~w:alpha) ])
                  in
                  Var (List.hd stepped))
            in
            [ Var final ])
      in
      [ Var result ])

(* ---------------------------------------------------------------- *)
(* Oracle, reference                                                 *)
(* ---------------------------------------------------------------- *)

let direct ~numo ~numx ~numt =
  let out = Array.make (numo * numx) 0.0 in
  for o = 0 to numo - 1 do
    let u =
      Array.init numx (fun x ->
          1.0 +. (0.001 *. float_of_int ((x + o) mod numx)))
    in
    for step = 0 to numt - 1 do
      let w = if step = 0 then 0.5 *. alpha else alpha in
      let a = -.w and cc = -.w in
      let dg = 1.0 +. (2.0 *. w) in
      let cp = Array.make numx 0.0 and dp = Array.make numx 0.0 in
      cp.(0) <- cc /. dg;
      dp.(0) <- u.(0) /. dg;
      for x = 1 to numx - 1 do
        let m = 1.0 /. (dg -. (a *. cp.(x - 1))) in
        cp.(x) <- cc *. m;
        dp.(x) <- (u.(x) -. (a *. dp.(x - 1))) *. m
      done;
      u.(numx - 1) <- dp.(numx - 1);
      for x = numx - 2 downto 0 do
        u.(x) <- dp.(x) -. (cp.(x) *. u.(x + 1))
      done
    done;
    Array.blit u 0 out (o * numx) numx
  done;
  out

let args ~numo ~numx ~numt =
  [ Value.VInt numo; Value.VInt numx; Value.VInt numt ]

(* Hand-written batched solver: coefficient state in registers/shared;
   reads/writes each price value once per timestep. *)
let ref_counters ~numo ~numx ~numt : Gpu.Device.counters =
  let c = Gpu.Device.fresh_counters () in
  let vals = float_of_int (numo * numx * numt) in
  c.Gpu.Device.kernels <- 1;
  c.Gpu.Device.kernel_reads <- vals *. 8.;
  c.Gpu.Device.kernel_writes <- vals *. 8.;
  c.Gpu.Device.flops <- vals *. 9.;
  c.Gpu.Device.allocs <- 1;
  c

let paper =
  [
    ("A100", "small", (103., 0.97, 1.05, 1.08));
    ("A100", "medium", (50., 1.18, 1.27, 1.07));
    ("A100", "large", (169., 0.63, 0.68, 1.08));
    ("MI100", "small", (207., 1.08, 1.20, 1.12));
    ("MI100", "medium", (84., 0.92, 0.97, 1.06));
    ("MI100", "large", (431., 0.76, 0.79, 1.04));
  ]

(* FinPar's dataset family: small = few options with fine grids,
   medium = many options with coarse grids, large = many + fine. *)
let datasets () =
  List.map
    (fun (label, numo, numx, numt) ->
      {
        Runner.label;
        args = args ~numo ~numx ~numt;
        ref_counters = Runner.Static (ref_counters ~numo ~numx ~numt);
      })
    [
      ("small", 16384, 256, 32);
      ("medium", 65536, 32, 64);
      ("large", 65536, 256, 64);
    ]

let table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe () : Runner.outcome =
  Runner.run_table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe ~trace_args:(args ~numo:6 ~numx:12 ~numt:4)
    ~title:"Table VI: LocVolCalib performance" ~runs:10 ~prog
    ~datasets:(datasets ()) ~paper ()

let small_args ~numo ~numx ~numt = args ~numo ~numx ~numt
let small_direct ~numo ~numx ~numt = direct ~numo ~numx ~numt
