(* k-Nearest Neighbors (Rodinia NN), Table VII.

   A batch of queries is matched against [nrec] records (lat/long
   pairs); the queries are processed in batches by a sequential loop
   whose body computes, in parallel, the nearest distance for each
   query of the batch, and writes the batch's results into the result
   vector in place - the paper's "loop with a reduction whose result is
   used in an in-place update".  Short-circuiting constructs each batch
   directly in the result vector, eliminating the per-iteration copy.

   The hand-written Rodinia comparison performs its reduction
   *sequentially* (the paper's explanation for Futhark's large margin):
   the reference model charges a dependent-chain scan over all records
   per batch on top of the same distance kernel. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Value = Ir.Value

let ctx0 =
  let ctx = Pr.add_range Pr.empty "nrec" ~lo:(P.const 1) () in
  let ctx = Pr.add_range ctx "nbatch" ~lo:(P.const 1) () in
  Pr.add_range ctx "bsz" ~lo:(P.const 1) ()

let source =
  {|
def nn (nrec: i64, nbatch: i64, bsz: i64, recs: [nrec][2]f64,
        queries: [nbatch*bsz][2]f64): [nbatch*bsz]f64 =
  let res0 = scratch(nbatch*bsz) in
  let batches = loop (res = res0) for bi < nbatch do {
    let batch = map (t < bsz) {
      let qx = queries[bi*bsz + t, 0] in
      let qy = queries[bi*bsz + t, 1] in
      let scan = loop (acc = inf) for scan_i < nrec do {
        let rx = recs[scan_i, 0] in
        let ry = recs[scan_i, 1] in
        let dx = qx - rx in
        let dy = qy - ry in
        let dy2 = dy * dy in
        min(acc, dx * dx + dy2)
      } in
      scan
    } in
    let res2 = res with [bi*bsz : bsz] = batch in
    res2
  } in
  batches
|}

let prog : prog = Frontend.Elab.compile_string ~ctx:ctx0 source

(* ---------------------------------------------------------------- *)
(* Inputs, oracle, reference                                         *)
(* ---------------------------------------------------------------- *)

let record_coord i j =
  let h = ((i * 7919) + (j * 104729) + 17) mod 4096 in
  float_of_int h /. 41.0

let input_recs ~nrec =
  Array.init (nrec * 2) (fun i -> record_coord (i / 2) (i mod 2))

let input_queries ~nq =
  Array.init (nq * 2) (fun i -> record_coord ((i / 2) + 31337) (i mod 2))

let direct ~nrec ~nq recs queries =
  Array.init nq (fun q ->
      let qx = queries.(2 * q) and qy = queries.((2 * q) + 1) in
      let best = ref infinity in
      for r = 0 to nrec - 1 do
        let dx = qx -. recs.(2 * r) and dy = qy -. recs.((2 * r) + 1) in
        best := Float.min !best ((dx *. dx) +. (dy *. dy))
      done;
      !best)

let args ~nrec ~nbatch ~bsz ~shell =
  let nq = nbatch * bsz in
  [
    Value.VInt nrec;
    Value.VInt nbatch;
    Value.VInt bsz;
    (if shell then Value.VArr (Value.shell F64 [ nrec; 2 ])
     else Value.VArr (Value.of_floats [ nrec; 2 ] (input_recs ~nrec)));
    (if shell then Value.VArr (Value.shell F64 [ nq; 2 ])
     else Value.VArr (Value.of_floats [ nq; 2 ] (input_queries ~nq)));
  ]

(* Rodinia: the same distance evaluation, but the minimum is found by a
   *sequential* scan over the records (a dependent chain charged at one
   step per record per batch, at scalar-pipeline rather than GPU
   throughput). *)
let seq_step = 8.0e-8 (* seconds per record of the sequential reduction *)

let ref_counters ~nrec ~nbatch ~bsz : Gpu.Device.counters =
  let c = Gpu.Device.fresh_counters () in
  let pairs = float_of_int nrec *. float_of_int (nbatch * bsz) in
  c.Gpu.Device.kernels <- nbatch;
  c.Gpu.Device.kernel_reads <-
    float_of_int nbatch *. float_of_int nrec *. 2. *. 8.;
  c.Gpu.Device.kernel_writes <- float_of_int (nbatch * bsz) *. 8.;
  ignore nbatch;
  c.Gpu.Device.flops <-
    (pairs *. 7.) +. (float_of_int nrec *. seq_step *. 6.0e12);
  (* the sequential scan is modelled as extra (dependent) work costing
     seq_step per record, independent of batching (Rodinia scans its
     distance array once on the host side) *)
  c.Gpu.Device.allocs <- 1;
  c

let paper =
  [
    ("A100", "855280", (70., 9.82, 15.19, 1.55));
    ("A100", "8552800", (631., 76.48, 93.18, 1.22));
    ("A100", "85528000", (6194., 197.66, 208.02, 1.05));
    ("MI100", "855280", (70., 5.06, 6.78, 1.34));
    ("MI100", "8552800", (630., 39.11, 46.08, 1.18));
    ("MI100", "85528000", (6280., 115.72, 126.18, 1.09));
  ]

let nbatch_paper = 64
let bsz_paper = 32

let datasets () =
  List.map
    (fun nrec ->
      {
        Runner.label = string_of_int nrec;
        args = args ~nrec ~nbatch:nbatch_paper ~bsz:bsz_paper ~shell:true;
        ref_counters = Runner.Static (ref_counters ~nrec ~nbatch:nbatch_paper ~bsz:bsz_paper);
      })
    [ 855280; 8552800; 85528000 ]

let small_args ~nrec ~nbatch ~bsz = args ~nrec ~nbatch ~bsz ~shell:false

let small_direct ~nrec ~nq =
  direct ~nrec ~nq (input_recs ~nrec) (input_queries ~nq)

let bench =
  {
    Runner.name = "nn";
    table_no = 7;
    title = "Table VII: NN performance";
    runs = 100;
    prog;
    small_args = (fun () -> small_args ~nrec:100 ~nbatch:4 ~bsz:8);
    datasets;
    paper;
  }
