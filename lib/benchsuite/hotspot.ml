(* Hotspot (Rodinia), Table III: repeated 5-point stencil on a thermal
   grid, with boundary rows handled separately (Fig. 10b).

   Each timestep computes the new temperature grid in three parts - the
   top boundary row, the interior rows, and the bottom boundary row
   (each part handling its own left/right corners with conditionals) -
   and concatenates them.  Without short-circuiting every part lives in
   its own allocation and the concat copies the whole grid; the pass
   constructs all three parts directly in the result's memory, making
   the concatenation a no-op (the paper's ~2x impact).

   Because the stencil reads the *previous* grid while writing the new
   one, the two live in different blocks (double buffering): the
   concat-operand circuits are trivially safe, which is why this
   benchmark sees the full impact while NW/LUD need the index
   analysis. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Value = Ir.Value

let ctx0 =
  Pr.add_range
    (Pr.add_range Pr.empty "n" ~lo:(P.const 4) ())
    "steps" ~lo:P.one ()

(* Physical coefficients of the Rodinia kernel (simplified constants). *)
let c_center = 0.6
let c_ns = 0.1
let c_ew = 0.1
let c_power = 0.1

(* Each part computes a stencil cell at row [row], column [j] with
   clamped neighbours: the center weighted [c_center], the vertical and
   horizontal neighbour sums [c_ns] and [c_ew], the power [c_power]. *)
let source =
  {|
def hotspot (n: i64, steps: i64, temp0: [n][n]f64, power: [n][n]f64): [n][n]f64 =
  let time = loop (temp = temp0) for t < steps do {
    -- top boundary row: its own row above
    let top = map (z < 1, j < n) {
      let tc = temp[0, j] in
      let up = temp[0, j] in
      let down = temp[1, j] in
      let left = if j == 0 then temp[0, j] else temp[0, j - 1] in
      let right = if j == idx(n - 1) then temp[0, j] else temp[0, j + 1] in
      let p = power[0, j] in
      let vsum = up + down in
      let hsum = left + right in
      tc * 0.6 + vsum * 0.1 + hsum * 0.1 + p * 0.1
    } in
    let mid = map (i < n - 2, j < n) {
      let tc = temp[i + 1, j] in
      let up = temp[i, j] in
      let down = temp[i + 2, j] in
      let left = if j == 0 then temp[i + 1, j] else temp[i + 1, j - 1] in
      let right = if j == idx(n - 1) then temp[i + 1, j] else temp[i + 1, j + 1] in
      let p = power[i + 1, j] in
      let vsum = up + down in
      let hsum = left + right in
      tc * 0.6 + vsum * 0.1 + hsum * 0.1 + p * 0.1
    } in
    -- bottom boundary row: its own row below
    let bot = map (z < 1, j < n) {
      let tc = temp[n - 1, j] in
      let up = temp[n - 2, j] in
      let down = temp[n - 1, j] in
      let left = if j == 0 then temp[n - 1, j] else temp[n - 1, j - 1] in
      let right = if j == idx(n - 1) then temp[n - 1, j] else temp[n - 1, j + 1] in
      let p = power[n - 1, j] in
      let vsum = up + down in
      let hsum = left + right in
      tc * 0.6 + vsum * 0.1 + hsum * 0.1 + p * 0.1
    } in
    let next = concat(top, mid, bot) in
    next
  } in
  time
|}

let prog : prog = Frontend.Elab.compile_string ~ctx:ctx0 source

(* ---------------------------------------------------------------- *)
(* Inputs, oracle, reference                                         *)
(* ---------------------------------------------------------------- *)

let input_temp ~n =
  Array.init (n * n) (fun i -> 300.0 +. float_of_int (i mod 17))

let input_power ~n =
  Array.init (n * n) (fun i -> 0.1 +. (0.001 *. float_of_int (i mod 13)))

let direct ~n ~steps temp0 power =
  let cur = ref (Array.copy temp0) in
  for _ = 1 to steps do
    let nxt = Array.make (n * n) 0.0 in
    for r = 0 to n - 1 do
      for c = 0 to n - 1 do
        let at r c = !cur.((r * n) + c) in
        let t = at r c in
        let up = at (max 0 (r - 1)) c in
        let down = at (min (n - 1) (r + 1)) c in
        let left = at r (max 0 (c - 1)) in
        let right = at r (min (n - 1) (c + 1)) in
        nxt.((r * n) + c) <-
          (c_center *. t)
          +. (c_ns *. (up +. down))
          +. (c_ew *. (left +. right))
          +. (c_power *. power.((r * n) + c))
      done
    done;
    cur := nxt
  done;
  !cur

let steps_paper = 5

let args ~n ~steps ~shell =
  [
    Value.VInt n;
    Value.VInt steps;
    (if shell then Value.VArr (Value.shell F64 [ n; n ])
     else Value.VArr (Value.of_floats [ n; n ] (input_temp ~n)));
    (if shell then Value.VArr (Value.shell F64 [ n; n ])
     else Value.VArr (Value.of_floats [ n; n ] (input_power ~n)));
  ]

(* The hand-written Rodinia kernel: one fused kernel per step (pyramidal
   time tiling collapses to the same asymptotic traffic), reading each
   grid cell of temp and power once and writing the new grid, all in
   place of the double buffer - no copies. *)
let ref_counters ~n ~steps : Gpu.Device.counters =
  let c = Gpu.Device.fresh_counters () in
  let cells = float_of_int (n * n) *. float_of_int steps in
  c.Gpu.Device.kernels <- steps;
  c.Gpu.Device.kernel_reads <- cells *. 2. *. 8.;
  c.Gpu.Device.kernel_writes <- cells *. 8.;
  c.Gpu.Device.flops <- cells *. 10.;
  c.Gpu.Device.allocs <- 2;
  c

let paper =
  [
    ("A100", "8192", (9., 0.47, 0.84, 1.78));
    ("A100", "16384", (29., 0.46, 0.94, 2.04));
    ("A100", "32768", (117., 0.46, 0.94, 2.05));
    ("MI100", "8192", (8., 0.33, 0.64, 1.96));
    ("MI100", "16384", (34., 0.35, 0.68, 1.97));
    ("MI100", "32768", (142., 0.37, 0.73, 1.98));
  ]

let datasets () =
  List.map
    (fun size ->
      {
        Runner.label = string_of_int size;
        args = args ~n:size ~steps:steps_paper ~shell:true;
        ref_counters = Runner.Static (ref_counters ~n:size ~steps:steps_paper);
      })
    [ 8192; 16384; 32768 ]

let table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe () : Runner.outcome =
  Runner.run_table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe ~trace_args:(args ~n:16 ~steps:3 ~shell:false)
    ~title:"Table III: Hotspot performance" ~runs:10 ~prog
    ~datasets:(datasets ()) ~paper ()

let small_args ~n ~steps = args ~n ~steps ~shell:false

let small_direct ~n ~steps =
  direct ~n ~steps (input_temp ~n) (input_power ~n)
