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
module B = Ir.Build
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

(* One stencil cell at (absolute row expression, column variable), with
   clamped neighbours.  [row_kind] fixes how the vertical neighbours
   are formed for the three part kernels. *)
let cell cb ~temp ~power ~row ~col ~up_row ~down_row =
  let n = P.var "n" in
  let t = B.index cb temp [ row; col ] in
  let up = B.index cb temp [ up_row; col ] in
  let down = B.index cb temp [ down_row; col ] in
  let cz = B.cmp cb CEq (B.idx cb col) (Int 0) in
  let left =
    B.if_ cb "left" cz
      (fun ib -> [ B.index ib temp [ row; col ] ])
      (fun ib -> [ B.index ib temp [ row; P.sub col P.one ] ])
  in
  let cl = B.cmp cb CEq (B.idx cb col) (B.idx cb (P.sub n P.one)) in
  let right =
    B.if_ cb "right" cl
      (fun ib -> [ B.index ib temp [ row; col ] ])
      (fun ib -> [ B.index ib temp [ row; P.add col P.one ] ])
  in
  let p = B.index cb power [ row; col ] in
  let vsum = B.fadd cb up down in
  let hsum = B.fadd cb (Var (List.hd left)) (Var (List.hd right)) in
  let acc = B.fmul cb t (Float c_center) in
  let acc = B.fadd cb acc (B.fmul cb vsum (Float c_ns)) in
  let acc = B.fadd cb acc (B.fmul cb hsum (Float c_ew)) in
  B.fadd cb acc (B.fmul cb p (Float c_power))

let prog : prog =
  let n = P.var "n" in
  let grid = arr F64 [ n; n ] in
  B.prog "hotspot" ~ctx:ctx0
    ~params:
      [
        pat_elem "n" i64;
        pat_elem "steps" i64;
        pat_elem "temp0" grid;
        pat_elem "power" grid;
      ]
    ~ret:[ grid ]
    (fun bb ->
      let res =
        B.loop bb "time"
          [ ("temp", grid, Var "temp0") ]
          ~var:"t" ~bound:(P.var "steps")
          (fun lb ->
            let z1 = B.fresh lb "z" and j1 = B.fresh lb "j" in
            let top =
              B.mapnest lb "top"
                [ (z1, P.one); (j1, n) ]
                (fun cb ->
                  let col = P.var j1 in
                  [
                    cell cb ~temp:"temp" ~power:"power" ~row:P.zero ~col
                      ~up_row:P.zero ~down_row:P.one;
                  ])
            in
            let i2 = B.fresh lb "i" and j2 = B.fresh lb "j" in
            let mid =
              B.mapnest lb "mid"
                [ (i2, P.sub n (P.const 2)); (j2, n) ]
                (fun cb ->
                  let row = P.add (P.var i2) P.one and col = P.var j2 in
                  [
                    cell cb ~temp:"temp" ~power:"power" ~row ~col
                      ~up_row:(P.sub row P.one) ~down_row:(P.add row P.one);
                  ])
            in
            let z3 = B.fresh lb "z" and j3 = B.fresh lb "j" in
            let bot =
              B.mapnest lb "bot"
                [ (z3, P.one); (j3, n) ]
                (fun cb ->
                  let row = P.sub n P.one and col = P.var j3 in
                  [
                    cell cb ~temp:"temp" ~power:"power" ~row ~col
                      ~up_row:(P.sub row P.one) ~down_row:row;
                  ])
            in
            let next = B.bind lb "next" (EConcat [ top; mid; bot ]) in
            [ Var next ])
      in
      [ Var (List.hd res) ])

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
