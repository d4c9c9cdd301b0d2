(* OptionPricing (FinPar), Table V: Monte-Carlo pricing with
   quasi-random paths.

   Each thread generates one price path (a per-thread array built by a
   sequential loop of hash-based pseudo-Sobol/Box-Muller arithmetic -
   arithmetic-heavy, like the real engine) which short-circuits into
   the path matrix (Fig. 6b); a second kernel folds each path into a
   payoff; a reduction produces the price.  The generation kernel is
   compute-bound, so eliminating the per-thread path copy has the
   modest impact the paper reports (1.03x - 1.21x). *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Value = Ir.Value

let ctx0 =
  Pr.add_range
    (Pr.add_range Pr.empty "npaths" ~lo:(P.const 1) ())
    "nsteps" ~lo:(P.const 1) ()

(* Deterministic hash-based normal-ish variate: several rounds of
   integer mixing followed by a polynomial transform, standing in for
   the Sobol + Box-Muller pipeline of the real engine (~the same
   arithmetic intensity, identical in the oracle). *)
let rounds = 24

let variate_direct p s =
  let h = ref (((p * 2654435761) + (s * 40503) + 12345) land 0xFFFFFF) in
  for _ = 1 to rounds do
    h := ((!h * 1103515245) + 12345) land 0xFFFFFF
  done;
  let u = float_of_int !h /. 16777216.0 in
  (* cheap smooth transform to a zero-mean variate *)
  let x = (2.0 *. u) -. 1.0 in
  x *. (1.0 +. (0.5 *. x *. x))

let s0 = 100.0
let drift = 0.0002
let vol = 0.01
let strike = 100.0

(* [variate_direct] inlined, its [rounds] unrolled; then each path's
   payoff with [s0] = strike = 100, 1 + [drift] = 1.0002 and [vol] =
   0.01. *)
let source =
  {|
def option_pricing (npaths: i64, nsteps: i64): f64 =
  -- kernel 1: generate all paths
  let paths = map (p < npaths) {
    let path = scratch(nsteps) in
    let gen = loop (path = path) for gen_i < nsteps do {
      let hs = gen_i * 40503 in
      let h = (p * 2654435761 + hs + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let h = (h * 1103515245 + 12345) % 16777216 in
      let u = f64(h) / 16777216.0 in
      let x = u * 2.0 - 1.0 in
      let x2 = x * x in
      path with [gen_i] = x * (1.0 + x2 * 0.5)
    } in
    gen
  } in
  -- kernel 2: fold each path into a discounted payoff
  let payoffs = map (p < npaths) {
    let walk = loop (acc = 100.0) for walk_i < nsteps do {
      acc * (1.0002 + paths[p, walk_i] * 0.01)
    } in
    max(0.0, walk - 100.0)
  } in
  -- kernel 3: average
  let total = reduce_add(payoffs) in
  total / f64(npaths)
|}

let prog : prog = Frontend.Elab.compile_string ~ctx:ctx0 source

(* ---------------------------------------------------------------- *)
(* Oracle, reference                                                 *)
(* ---------------------------------------------------------------- *)

let direct ~npaths ~nsteps =
  let acc = ref 0.0 in
  for p = 0 to npaths - 1 do
    let price = ref s0 in
    for s = 0 to nsteps - 1 do
      let z = variate_direct p s in
      price := !price *. (1.0 +. drift +. (vol *. z))
    done;
    acc := !acc +. Float.max 0.0 (!price -. strike)
  done;
  !acc /. float_of_int npaths

let args ~npaths ~nsteps = [ Value.VInt npaths; Value.VInt nsteps ]

(* Hand-written engine: the same two kernels and reduction with the
   paths kept entirely in registers (no path matrix traffic at all). *)
let ref_counters ~npaths ~nsteps : Gpu.Device.counters =
  let c = Gpu.Device.fresh_counters () in
  let vals = float_of_int (npaths * nsteps) in
  c.Gpu.Device.kernels <- 2;
  c.Gpu.Device.kernel_reads <- float_of_int npaths *. 8.;
  c.Gpu.Device.kernel_writes <- float_of_int npaths *. 8.;
  (* the hand-written engine keeps everything in registers and shaves
     ~20%% of the arithmetic through manual strength reduction *)
  c.Gpu.Device.flops <- vals *. float_of_int ((4 * rounds) + 14) *. 0.8;
  c.Gpu.Device.allocs <- 1;
  c

let paper =
  [
    ("A100", "medium", (1., 0.78, 0.80, 1.03));
    ("A100", "large", (18., 0.58, 0.70, 1.21));
    ("MI100", "medium", (13., 4.19, 4.70, 1.12));
    ("MI100", "large", (28., 0.65, 0.74, 1.14));
  ]

let datasets () =
  List.map
    (fun (label, npaths, nsteps) ->
      {
        Runner.label;
        args = args ~npaths ~nsteps;
        ref_counters = Runner.Static (ref_counters ~npaths ~nsteps);
      })
    [ ("medium", 65536, 252); ("large", 1048576, 252) ]

let table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe () : Runner.outcome =
  Runner.run_table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe ~trace_args:(args ~npaths:64 ~nsteps:16)
    ~title:"Table V: OptionPricing performance" ~runs:1000
    ~prog ~datasets:(datasets ()) ~paper ()

let small_args ~npaths ~nsteps = args ~npaths ~nsteps
let small_direct ~npaths ~nsteps = direct ~npaths ~nsteps
