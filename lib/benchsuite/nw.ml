(* Needleman-Wunsch (Rodinia), the paper's running example and Table I.

   The n x n dynamic-programming matrix (n = q*b + 1) is kept flat; each
   wavefront step processes the m blocks of one anti-diagonal of the
   blocked matrix in parallel.  The generalized LMAD slices of section
   III-B describe the read sets (the vertical and horizontal bars
   adjacent to each block) and the write set (the blocks themselves):

     W     = woff         + {(m : n*b - b), (b : n), (b : 1)}
     Rvert = woff - n - 1 + {(m : n*b - b), (b+1 : n)}
     Rhoriz= woff - n     + {(m : n*b - b), (b : 1)}

   Short-circuiting must prove W disjoint from Rvert and Rhoriz (the
   Fig. 9 obligation) to construct each anti-diagonal's blocks directly
   in the matrix, eliminating the per-step copy.

   The substitution score is computed on the fly from the cell's flat
   position (a fixed hash), so the IR program, the direct OCaml oracle
   and the reference model all agree on the workload. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Value = Ir.Value

let score_mod = 19
let score_bias = 9.0

(* The paper's datasets use b = 16 (Rodinia's BLOCK_SIZE). *)
let block_size = 16

let ctx0 =
  let c = P.const in
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  Pr.add_eq ctx "n" (P.add (P.mul (P.var "q") (P.var "b")) P.one)

(* Each half of the matrix is a loop of wavefront steps: slice the bars
   of the anti-diagonal's [m] blocks, whose first block starts at flat
   offset [woff], compute the blocks in parallel, and write them back
   with the LMAD update.  The substitution score hashes the cell's flat
   position; [score_mod] and [score_bias] are its constants. *)
let source =
  {|
def nw (q: i64, b: i64, n: i64, penalty: f64, a: [n*n]f64): [n*n]f64 =
  let h1 = loop (a1 = a) for i < q do {
    -- first half: anti-diagonal i has i + 1 blocks
    let m = i + 1 in
    let woff = i*b + n + 1 in
    let rvert = a1[woff - n - 1; (m : n*b - b), (b + 1 : n)] in
    let rhoriz = a1[woff - n; (m : n*b - b), (b : 1)] in
    let x = map (k < m) {
      let blk = scratch(b, b) in
      let rows = loop (blkr = blk) for r < b do {
        let cols = loop (blkc = blkr) for c < b do {
          let rz = r == 0 in
          let cz = c == 0 in
          let up = if rz then rhoriz[k, c] else blkc[r - 1, c] in
          let left = if cz then rvert[k, r + 1] else blkc[r, c - 1] in
          let diag =
            if rz then (if cz then rvert[k, 0] else rhoriz[k, c - 1])
            else (if cz then rvert[k, r] else blkc[r - 1, c - 1]) in
          let flat = idx(woff + k*(n*b - b) + r*n + c) in
          let score = f64((flat * 31 + 7) % 19) - 9.0 in
          let blkc2 = blkc with [r, c] =
            max(diag + score, max(up - penalty, left - penalty)) in
          blkc2
        } in
        cols
      } in
      rows
    } in
    let a_next = a1 with [woff; (m : n*b - b), (b : n), (b : 1)] = x in
    a_next
  } in
  let h2 = loop (a2 = h1) for s < q - 1 do {
    -- second half: anti-diagonal q + s has q - 1 - s blocks
    let m = q - 1 - s in
    let woff = (s + 1)*b*n + (q - 1)*b + n + 1 in
    let rvert = a2[woff - n - 1; (m : n*b - b), (b + 1 : n)] in
    let rhoriz = a2[woff - n; (m : n*b - b), (b : 1)] in
    let x = map (k < m) {
      let blk = scratch(b, b) in
      let rows = loop (blkr = blk) for r < b do {
        let cols = loop (blkc = blkr) for c < b do {
          let rz = r == 0 in
          let cz = c == 0 in
          let up = if rz then rhoriz[k, c] else blkc[r - 1, c] in
          let left = if cz then rvert[k, r + 1] else blkc[r, c - 1] in
          let diag =
            if rz then (if cz then rvert[k, 0] else rhoriz[k, c - 1])
            else (if cz then rvert[k, r] else blkc[r - 1, c - 1]) in
          let flat = idx(woff + k*(n*b - b) + r*n + c) in
          let score = f64((flat * 31 + 7) % 19) - 9.0 in
          let blkc2 = blkc with [r, c] =
            max(diag + score, max(up - penalty, left - penalty)) in
          blkc2
        } in
        cols
      } in
      rows
    } in
    let a_next = a2 with [woff; (m : n*b - b), (b : n), (b : 1)] = x in
    a_next
  } in
  h2
|}

let prog : prog = Frontend.Elab.compile_string ~ctx:ctx0 source

(* The Fig. 9 obligation at first-half step i (m = i + 1 blocks from
   woff = i*b + n + 1): the header's W, Rvert and Rhoriz under the
   assumptions n = q*b + 1, q >= 2, b >= 2 and 0 <= i <= q - 1.  W must
   be proved disjoint from both read sets, and W # W must stay
   unproven.  A function, so that loading the module builds nothing. *)
type fig9 = {
  ctx : Pr.t;
  w : Lmads.Lmad.t;
  rvert : Lmads.Lmad.t;
  rhoriz : Lmads.Lmad.t;
}

let fig9 () =
  let c = P.const in
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "i" ~lo:(c 0) ~hi:(P.sub (P.var "q") P.one) () in
  let ctx = Pr.add_eq ctx "n" (P.add (P.mul (P.var "q") (P.var "b")) P.one) in
  let n = P.var "n" and b = P.var "b" and i = P.var "i" in
  let make = Lmads.Lmad.make and dim = Lmads.Lmad.dim in
  let blocks = dim (P.add i P.one) (P.sub (P.mul n b) b) in
  {
    ctx;
    w = make (P.sum [ P.mul i b; n; P.one ]) [ blocks; dim b n; dim b P.one ];
    rvert = make (P.mul i b) [ blocks; dim (P.add b P.one) n ];
    rhoriz = make (P.add (P.mul i b) P.one) [ blocks; dim b P.one ];
  }

(* ---------------------------------------------------------------- *)
(* Inputs and the direct OCaml oracle                                *)
(* ---------------------------------------------------------------- *)

let score flat = float_of_int (((flat * 31) + 7) mod score_mod) -. score_bias

let input ~n ~penalty =
  let a = Array.make (n * n) 0.0 in
  for i = 1 to n - 1 do
    a.(i) <- -.(float_of_int i *. penalty);
    a.(i * n) <- -.(float_of_int i *. penalty)
  done;
  a

(* Straightforward sequential DP: the golden implementation of Fig. 2. *)
let direct ~n ~penalty (a0 : float array) : float array =
  let f = Array.copy a0 in
  for r = 1 to n - 1 do
    for c = 1 to n - 1 do
      let flat = (r * n) + c in
      let cand1 = f.(((r - 1) * n) + c - 1) +. score flat in
      let cand2 = f.(((r - 1) * n) + c) -. penalty in
      let cand3 = f.((r * n) + c - 1) -. penalty in
      f.(flat) <- Float.max cand1 (Float.max cand2 cand3)
    done
  done;
  f

let args ~q ~b ~penalty ~shell =
  let n = (q * b) + 1 in
  [
    Value.VInt q;
    Value.VInt b;
    Value.VInt n;
    Value.VFloat penalty;
    (if shell then Value.VArr (Value.shell F64 [ n * n ])
     else Value.VArr (Value.of_floats [ n * n ] (input ~n ~penalty)));
  ]

(* ---------------------------------------------------------------- *)
(* The Rodinia reference model                                       *)
(* ---------------------------------------------------------------- *)

(* Rodinia's hand-written NW: one kernel per anti-diagonal per half
   (2q - 1 launches), each block reading its two bars and, unlike the
   on-the-fly scoring of the Futhark version, the b*b slice of the
   *reference* similarity matrix from global memory; everything is
   computed in shared memory and the b*b block written back in place
   (no copies). *)
let ref_counters ~q ~b : Gpu.Device.counters =
  let c = Gpu.Device.fresh_counters () in
  let blocks = float_of_int (q * q) in
  let bf = float_of_int b in
  c.Gpu.Device.kernels <- (2 * q) - 1;
  c.Gpu.Device.kernel_reads <-
    blocks *. ((2. *. bf) +. 1. +. (bf *. bf)) *. 8.;
  c.Gpu.Device.kernel_writes <- blocks *. bf *. bf *. 8.;
  c.Gpu.Device.flops <- blocks *. bf *. bf *. 8.;
  c.Gpu.Device.allocs <- 2;
  c

(* ---------------------------------------------------------------- *)
(* Table I                                                           *)
(* ---------------------------------------------------------------- *)

let paper =
  [
    ("A100", "8192", (9., 0.99, 1.16, 1.17));
    ("A100", "16384", (21., 0.96, 1.19, 1.24));
    ("A100", "32768", (58., 1.04, 1.36, 1.31));
    ("MI100", "8192", (15., 0.71, 0.88, 1.24));
    ("MI100", "16384", (44., 0.64, 0.78, 1.21));
    ("MI100", "32768", (325., 1.01, 1.14, 1.13));
  ]

let datasets () =
  List.map
    (fun size ->
      let q = size / block_size in
      {
        Runner.label = string_of_int size;
        args = args ~q ~b:block_size ~penalty:10.0 ~shell:true;
        ref_counters = Runner.Static (ref_counters ~q ~b:block_size);
      })
    [ 8192; 16384; 32768 ]

(* Reduced-size instance for full-mode validation in the test suite. *)
let small_args ~q ~b = args ~q ~b ~penalty:10.0 ~shell:false

let small_direct ~q ~b =
  let n = (q * b) + 1 in
  direct ~n ~penalty:10.0 (input ~n ~penalty:10.0)

let bench =
  {
    Runner.name = "nw";
    table_no = 1;
    title = "Table I: NW performance";
    runs = 1000;
    prog;
    small_args = (fun () -> small_args ~q:3 ~b:4);
    datasets;
    paper;
  }
