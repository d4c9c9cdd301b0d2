(* Blocked LU decomposition (Rodinia LUD), Table II.

   The n x n matrix (n = q*b) is processed along the block diagonal
   (Fig. 10a): at step k the diagonal block is factored (green), the
   perimeter row (yellow) and column (blue) blocks are updated with it,
   and every interior (red) block receives a rank-b update.

   Memory behaviour mirrors the paper's observations:
   - the *yellow* and *red* results short-circuit into the matrix
     (their write-backs become no-ops) - the red case exercises the
     2-D cross-thread refinement of the index analysis;
   - the *blue* blocks are kept in a temporary that the interior kernel
     reads afterwards (coalesced-access layout), so they are not lastly
     used at their write-back and remain a copy;
   - the diagonal block is loaded from the region it is written to; the
     paper's analysis conservatively keeps its copy ("the green and
     blue blocks are not computed in-place"), but our prover's
     triangular-bound saturation discharges the single-thread
     cross-thread obligation, so the *green* factorization also runs in
     place here.

   Validation: blocked LU equals unblocked Doolittle elimination; the
   oracle runs Doolittle directly on a diagonally dominant input. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Value = Ir.Value

let block_size = 16

let ctx0 =
  let c = P.const in
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  Pr.add_eq ctx "n" (P.mul (P.var "q") (P.var "b"))

(* Step [k] works on the [m] = q - 1 - k block rows and columns below
   and right of the diagonal block at flat offset [dbase]; every block
   is first loaded into a [b][b] scratch accumulator.  Index variables
   carry their phase's prefix (ld: load, dool: Doolittle, fs/bs:
   forward/backward substitution, upd: interior update), since the
   prover tries a goal's variables in name order.

   At the last step (k = q - 1) the perimeter and interior are empty:
   branching them away keeps the semantics and leaves the blue
   temporary's allocation local to the else arm, where the reuse pass's
   hoist-through-if-arms strategy lifts it in front of the conditional
   and then out of the loop. *)
let source =
  {|
def lud (q: i64, b: i64, n: i64, a: [n*n]f64): [n*n]f64 =
  loop (am = a) for k < q do {
    let m = q - 1 - k in
    let dbase = k*b*n + k*b in
    -- green: in-place Doolittle on the diagonal block
    let xd = map (z < 1) {
      let blk0 = scratch(b, b) in
      let ld = loop (ld = blk0) for ld_i < b do {
        loop (ldc = ld) for ldc_i < b do {
          ldc with [ld_i, ldc_i] = am[dbase + ld_i*n + ldc_i]
        }
      } in
      loop (d = ld) for dool_i < b do {
        loop (dj = d) for doolj_i < b - dool_i - 1 do {
          let j = dool_i + 1 + doolj_i in
          let piv = dj[dool_i, dool_i] in
          let aji = dj[j, dool_i] in
          let l = aji / piv in
          let d1 = dj with [j, dool_i] = l in
          loop (dt = d1) for doolt_i < b - dool_i - 1 do {
            let t = dool_i + 1 + doolt_i in
            let ajt = dt[j, t] in
            let ait = dt[dool_i, t] in
            dt with [j, t] = ajt - l * ait
          }
        }
      }
    } in
    let a1 = am with [dbase; (1 : n*b), (b : n), (b : 1)] = xd in
    let anext = if k == idx(q - 1) then a1 else (
      -- yellow: perimeter row U_kj = L_kk^-1 A_kj
      let xt = map (j < m) {
        let blk0 = scratch(b, b) in
        let ld = loop (ld = blk0) for ld_i < b do {
          loop (ldc = ld) for ldc_i < b do {
            ldc with [ld_i, ldc_i] = a1[k*b*n + (k + 1)*b + j*b + ld_i*n + ldc_i]
          }
        } in
        loop (fs = ld) for fs_i < b do {
          loop (fsc = fs) for fsc_i < b do {
            let tv = fsc[fs_i, fsc_i] in
            let fst = loop (acc = tv) for fst_i < fs_i do {
              acc - a1[dbase + fs_i*n + fst_i] * fsc[fst_i, fsc_i]
            } in
            fsc with [fs_i, fsc_i] = fst
          }
        }
      } in
      let a2 = a1 with [k*b*n + (k + 1)*b; (m : b), (b : n), (b : 1)] = xt in
      -- blue: perimeter column L_ik = A_ik U_kk^-1
      let xl = map (i < m) {
        let blk0 = scratch(b, b) in
        let ld = loop (ld = blk0) for ld_i < b do {
          loop (ldc = ld) for ldc_i < b do {
            ldc with [ld_i, ldc_i] = a2[(k + 1)*b*n + i*n*b + k*b + ld_i*n + ldc_i]
          }
        } in
        loop (bs = ld) for bs_i < b do {
          loop (bsr = bs) for bsr_i < b do {
            let tv = bsr[bsr_i, bs_i] in
            let bst = loop (acc = tv) for bst_i < bs_i do {
              acc - bsr[bsr_i, bst_i] * a2[dbase + bst_i*n + bs_i]
            } in
            bsr with [bsr_i, bs_i] = bst / a2[dbase + bs_i*n + bs_i]
          }
        }
      } in
      let a3 = a2 with [(k + 1)*b*n + k*b; (m : n*b), (b : n), (b : 1)] = xl in
      -- red: interior rank-b update, L from the blue temporary
      let xi = map (bi < m, bj < m) {
        let blk0 = scratch(b, b) in
        let ld = loop (ld = blk0) for ld_i < b do {
          loop (ldc = ld) for ldc_i < b do {
            ldc with [ld_i, ldc_i] =
              a3[(k + 1)*b*n + (k + 1)*b + bi*n*b + bj*b + ld_i*n + ldc_i]
          }
        } in
        loop (u = ld) for upd_i < b do {
          loop (uc = u) for updc_i < b do {
            let tv = uc[upd_i, updc_i] in
            let updt = loop (acc = tv) for updt_i < b do {
              acc - xl[bi, upd_i, updt_i]
                    * a3[k*b*n + (k + 1)*b + bj*b + updt_i*n + updc_i]
            } in
            uc with [upd_i, updc_i] = updt
          }
        }
      } in
      let a4 =
        a3 with [(k + 1)*b*n + (k + 1)*b; (m : n*b), (m : b), (b : n), (b : 1)] = xi in
      a4) in
    anext
  }
|}

let prog : prog = Frontend.Elab.compile_string ~ctx:ctx0 source

(* ---------------------------------------------------------------- *)
(* Inputs, oracle, reference                                         *)
(* ---------------------------------------------------------------- *)

(* Diagonally dominant symmetric-ish input: stable under LU without
   pivoting, so blocked and unblocked factorizations agree closely. *)
let input ~n =
  Array.init (n * n) (fun i ->
      let r = i / n and c = i mod n in
      if r = c then float_of_int (n + 4)
      else 1.0 /. (1.0 +. float_of_int (abs (r - c))))

(* Unblocked Doolittle elimination: L (unit diagonal, strictly lower)
   and U share the matrix. *)
let direct ~n (a0 : float array) : float array =
  let a = Array.copy a0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let l = a.((j * n) + i) /. a.((i * n) + i) in
      a.((j * n) + i) <- l;
      for t = i + 1 to n - 1 do
        a.((j * n) + t) <- a.((j * n) + t) -. (l *. a.((i * n) + t))
      done
    done
  done;
  a

let args ~q ~b ~shell =
  let n = q * b in
  [
    Value.VInt q;
    Value.VInt b;
    Value.VInt n;
    (if shell then Value.VArr (Value.shell F64 [ n * n ])
     else Value.VArr (Value.of_floats [ n * n ] (input ~n)));
  ]

(* Rodinia's hand-written LUD runs the same blocked algorithm fully in
   place (no copies), but with block tiling only: without register
   tiling each interior operand is re-fetched from shared/L2 per block
   row instead of staying in registers, which we charge as ~1.6x the
   optimized kernel's read traffic (the paper's explanation for Futhark
   outperforming it).  The reference is therefore derived from the
   measured optimized trace. *)
let ref_of_opt (opt : Gpu.Device.counters) : Gpu.Device.counters =
  let c = Gpu.Device.clone opt in
  c.Gpu.Device.kernel_reads <- opt.Gpu.Device.kernel_reads *. 1.6;
  c.Gpu.Device.copies <- 0;
  c.Gpu.Device.copy_bytes <- 0.;
  c.Gpu.Device.copies_elided <- 0;
  c.Gpu.Device.elided_bytes <- 0.;
  c.Gpu.Device.allocs <- 1;
  c

let paper =
  [
    ("A100", "8192", (190., 1.08, 1.34, 1.25));
    ("A100", "16384", (1445., 1.19, 1.53, 1.29));
    ("A100", "32768", (11547., 1.21, 1.60, 1.32));
    ("MI100", "8192", (173., 0.60, 0.72, 1.19));
    ("MI100", "16384", (1248., 0.74, 0.98, 1.32));
    ("MI100", "32768", (10511., 0.83, 1.14, 1.39));
  ]

let datasets () =
  List.map
    (fun size ->
      {
        Runner.label = string_of_int size;
        args = args ~q:(size / block_size) ~b:block_size ~shell:true;
        ref_counters = Runner.From_opt ref_of_opt;
      })
    [ 8192; 16384; 32768 ]

let table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe () : Runner.outcome =
  Runner.run_table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe ~trace_args:(args ~q:3 ~b:4 ~shell:false)
    ~title:"Table II: LUD performance" ~runs:10 ~prog
    ~datasets:(datasets ()) ~paper ()

let small_args ~q ~b = args ~q ~b ~shell:false
let small_direct ~q ~b = direct ~n:(q * b) (input ~n:(q * b))
