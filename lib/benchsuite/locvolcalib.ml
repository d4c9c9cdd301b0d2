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
module Value = Ir.Value

let ctx0 =
  Pr.add_range
    (Pr.add_range Pr.empty "numo" ~lo:(P.const 1) ())
    "numx" ~lo:(P.const 3) ()

let alpha = 0.45 (* off-diagonal weight; diagonally dominant system *)

(* One implicit timestep is a Thomas solve of the tridiagonal system
   with off-diagonal weight w (lower/upper coefficients -w, diagonal
   1 + 2w) over the price vector [u].  Rannacher startup: the first
   step is damped (w = [alpha] / 2 = 0.225), later steps use the full
   Crank-Nicolson weight (w = [alpha] = 0.45); the literals are -w,
   1 + 2w and -w / (1 + 2w).  Both arms are complete solves with
   arm-local coefficient vectors, so the reuse pass's
   hoist-through-if-arms strategy pairs the two arms' scratch
   allocations and lifts them above the conditional. *)
let source =
  {|
def locvolcalib (numo: i64, numx: i64, numt: i64): [numo][numx]f64 =
  let result = map (o < numo) {
    -- initial condition parameterized by the option index
    let u0 = scratch(numx) in
    let init = loop (u = u0) for init_i < numx do {
      u with [init_i] = 1.0 + f64((init_i + o) % numx) * 0.001
    } in
    let time = loop (u = init) for time_i < numt do {
      let ustep = if time_i == 0 then (
        let cp0 = scratch(numx) in
        let dp0 = scratch(numx) in
        let cp1 = cp0 with [0] = -0.15517241379310345 in
        let dp1 = dp0 with [0] = u[0] / 1.45 in
        -- forward sweep
        let (cpf, dpf) = loop (cp = cp1, dp = dp1) for fx < numx - 1 do {
          let cprev = cp[fx] in
          let dprev = dp[fx] in
          let m = 1.0 / (1.45 - -0.225 * cprev) in
          let cp2 = cp with [fx + 1] = -0.225 * m in
          let ux = u[fx + 1] in
          let dp2 = dp with [fx + 1] = (ux - -0.225 * dprev) * m in
          (cp2, dp2)
        } in
        -- backward substitution into a fresh vector
        let un0 = scratch(numx) in
        let un1 = un0 with [numx - 1] = dpf[numx - 1] in
        loop (un = un1) for bwd_i < numx - 1 do {
          let x = numx - 2 - bwd_i in
          let up1 = un[x + 1] in
          let cu = cpf[x] * up1 in
          un with [x] = dpf[x] - cu
        }
      ) else (
        let cp0 = scratch(numx) in
        let dp0 = scratch(numx) in
        let cp1 = cp0 with [0] = -0.2368421052631579 in
        let dp1 = dp0 with [0] = u[0] / 1.9 in
        -- forward sweep
        let (cpf, dpf) = loop (cp = cp1, dp = dp1) for fx < numx - 1 do {
          let cprev = cp[fx] in
          let dprev = dp[fx] in
          let m = 1.0 / (1.9 - -0.45 * cprev) in
          let cp2 = cp with [fx + 1] = -0.45 * m in
          let ux = u[fx + 1] in
          let dp2 = dp with [fx + 1] = (ux - -0.45 * dprev) * m in
          (cp2, dp2)
        } in
        -- backward substitution into a fresh vector
        let un0 = scratch(numx) in
        let un1 = un0 with [numx - 1] = dpf[numx - 1] in
        loop (un = un1) for bwd_i < numx - 1 do {
          let x = numx - 2 - bwd_i in
          let up1 = un[x + 1] in
          let cu = cpf[x] * up1 in
          un with [x] = dpf[x] - cu
        }
      ) in
      ustep
    } in
    time
  } in
  result
|}

let prog : prog = Frontend.Elab.compile_string ~ctx:ctx0 source

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
