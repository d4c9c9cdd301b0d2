(* Lattice-Boltzmann (Parboil LBM), Table IV: a D2Q9 stream-collide
   update over an n x n grid for [steps] timesteps.

   Each thread gathers the nine distribution values streaming into its
   cell from the previous grid (periodic boundaries via modulo index
   arithmetic - genuinely data-dependent reads, loaded from the
   direction tables), relaxes them towards equilibrium, and returns the
   per-cell distribution vector.  The per-thread result array is the
   paper's implicit mapnest circuit point (Fig. 6b, "high impact on the
   LBM benchmark"): without short-circuiting every thread's 9-vector is
   manifested and copied into the result grid. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Value = Ir.Value

let qdirs = 9
let omega = 0.8

(* D2Q9 direction/weight tables. *)
let dxs = [| 0; 1; 0; -1; 0; 1; -1; -1; 1 |]
let dys = [| 0; 0; 1; 0; -1; 1; 1; -1; -1 |]

let weights =
  [| 4. /. 9.; 1. /. 9.; 1. /. 9.; 1. /. 9.; 1. /. 9.;
     1. /. 36.; 1. /. 36.; 1. /. 36.; 1. /. 36. |]

let ctx0 =
  Pr.add_range
    (Pr.add_range Pr.empty "n" ~lo:(P.const 2) ())
    "steps" ~lo:P.one ()

(* Each thread gathers along the direction tables, sums the density and
   relaxes with [omega] = 0.8 (the literal 0.19999999999999996 is
   1 - omega). *)
let source =
  {|
def lbm (n: i64, steps: i64, f0: [n][n][9]f64, dx: [9]i64, dy: [9]i64,
         w: [9]f64): [n][n][9]f64 =
  let time = loop (f = f0) for t < steps do {
    let fnext = map (i < n, j < n) {
      -- gather the streamed-in distributions, periodic boundaries
      let rs = scratch(9) in
      let gather = loop (g = rs) for gather_i < 9 do {
        let ddx = dx[gather_i] in
        let ddy = dy[gather_i] in
        let si = (i - ddy + n) % n in
        let sj = (j - ddx + n) % n in
        g with [gather_i] = f[si, sj, gather_i]
      } in
      let rho = loop (acc = 0.0) for rho_i < 9 do { acc + gather[rho_i] } in
      -- BGK relaxation towards w[d] * rho
      let out = scratch(9) in
      let collide = loop (o = out) for collide_i < 9 do {
        let fd = gather[collide_i] in
        let wd = w[collide_i] in
        let feq = wd * rho in
        let relaxed = feq * 0.8 in
        o with [collide_i] = fd * 0.19999999999999996 + relaxed
      } in
      collide
    } in
    fnext
  } in
  time
|}

let prog : prog = Frontend.Elab.compile_string ~ctx:ctx0 source

(* ---------------------------------------------------------------- *)
(* Inputs, oracle, reference                                         *)
(* ---------------------------------------------------------------- *)

let input_f ~n =
  Array.init (n * n * qdirs) (fun i ->
      weights.(i mod qdirs) *. (1.0 +. (0.01 *. float_of_int (i mod 7))))

let direct ~n ~steps f0 =
  let cur = ref (Array.copy f0) in
  let idx i j d = (((i * n) + j) * qdirs) + d in
  for _ = 1 to steps do
    let nxt = Array.make (n * n * qdirs) 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let gathered =
          Array.init qdirs (fun d ->
              let si = (i - dys.(d) + n) mod n in
              let sj = (j - dxs.(d) + n) mod n in
              !cur.(idx si sj d))
        in
        let rho = Array.fold_left ( +. ) 0.0 gathered in
        for d = 0 to qdirs - 1 do
          nxt.(idx i j d) <-
            (gathered.(d) *. (1.0 -. omega)) +. (weights.(d) *. rho *. omega)
        done
      done
    done;
    cur := nxt
  done;
  !cur

let args ~n ~steps ~shell =
  [
    Value.VInt n;
    Value.VInt steps;
    (if shell then Value.VArr (Value.shell F64 [ n; n; qdirs ])
     else Value.VArr (Value.of_floats [ n; n; qdirs ] (input_f ~n)));
    Value.VArr (Value.of_ints [ qdirs ] dxs);
    Value.VArr (Value.of_ints [ qdirs ] dys);
    Value.VArr (Value.of_floats [ qdirs ] weights);
  ]

(* Hand-written LBM: one kernel per step, reading and writing each
   distribution value exactly once (all intermediate state in
   registers), with heavy arithmetic per cell. *)
let ref_counters ~n ~steps : Gpu.Device.counters =
  let c = Gpu.Device.fresh_counters () in
  let vals = float_of_int (n * n * qdirs) *. float_of_int steps in
  c.Gpu.Device.kernels <- steps;
  (* reads the source distributions plus the obstacle/flag field *)
  c.Gpu.Device.kernel_reads <- vals *. 2. *. 8.;
  c.Gpu.Device.kernel_writes <- vals *. 8.;
  c.Gpu.Device.flops <- vals *. 25.;
  c.Gpu.Device.allocs <- 2;
  c

let paper =
  [
    ("A100", "short", (29., 0.84, 0.92, 1.09));
    ("A100", "long", (860., 0.86, 0.95, 1.10));
    ("MI100", "short", (49., 0.65, 1.04, 1.59));
    ("MI100", "long", (1423., 0.63, 1.01, 1.60));
  ]

let grid_paper = 4096

let datasets () =
  List.map
    (fun (label, steps) ->
      {
        Runner.label;
        args = args ~n:grid_paper ~steps ~shell:true;
        ref_counters = Runner.Static (ref_counters ~n:grid_paper ~steps);
      })
    [ ("short", 10); ("long", 300) ]

let small_args ~n ~steps = args ~n ~steps ~shell:false
let small_direct ~n ~steps = direct ~n ~steps (input_f ~n)

let bench =
  {
    Runner.name = "lbm";
    table_no = 4;
    title = "Table IV: LBM performance";
    runs = 100;
    prog;
    small_args = (fun () -> small_args ~n:8 ~steps:3);
    datasets;
    paper;
  }
