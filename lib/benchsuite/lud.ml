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
module Lmad = Lmads.Lmad
module B = Ir.Build
module Value = Ir.Value

let block_size = 16

let ctx0 =
  let c = P.const in
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  Pr.add_eq ctx "n" (P.mul (P.var "q") (P.var "b"))

let blk_t = arr F64 [ P.var "b"; P.var "b" ]

(* Scalar update of a [b][b] block accumulator. *)
let set_cell cb ~blk ~r ~c v =
  B.bind cb "blk'"
    (EUpdate { dst = blk; slc = STriplet [ SFix r; SFix c ]; src = SrcScalar v })

(* Load the b x b block whose top-left cell sits at flat offset
   [base] of matrix [mat] into a fresh scratch accumulator. *)
let load_block tb ~mat ~base =
  let bP = P.var "b" and n = P.var "n" in
  let d0 = B.bind tb "blk0" (EScratch (F64, [ bP; bP ])) in
  B.loop1 tb "ld" blk_t (Var d0) ~bound:bP (fun rb ~param ~i:r ->
      Var
        (B.loop1 rb "ldc" blk_t (Var param) ~bound:bP (fun cb ~param ~i:c ->
             let v = B.index cb mat [ P.sum [ base; P.mul r n; c ] ] in
             Var (set_cell cb ~blk:param ~r ~c v))))

let prog : prog =
  let n = P.var "n" and q = P.var "q" and bP = P.var "b" in
  let nn = P.mul n n in
  B.prog "lud" ~ctx:ctx0
    ~params:
      [
        pat_elem "q" i64;
        pat_elem "b" i64;
        pat_elem "n" i64;
        pat_elem "a" (arr F64 [ nn ]);
      ]
    ~ret:[ arr F64 [ nn ] ]
    (fun bb ->
      let res =
        B.loop bb "steps"
          [ ("am", arr F64 [ nn ], Var "a") ]
          ~var:"k" ~bound:q
          (fun lb ->
            let k = P.var "k" in
            let kb = P.mul k bP in
            let m = P.sub (P.sub q P.one) k in
            let diag_base = P.add (P.mul kb n) kb in
            let nb = P.mul n bP in
            (* ---- green: factor the diagonal block ---------------- *)
            let z = B.fresh lb "z" in
            let xd =
              B.mapnest lb "xd"
                [ (z, P.one) ]
                (fun tb ->
                  let d = load_block tb ~mat:"am" ~base:diag_base in
                  (* in-place Doolittle: for i: for j>i: l = d[j][i]/d[i][i];
                     d[j][i] = l; for t>i: d[j][t] -= l*d[i][t] *)
                  let final =
                    B.loop1 tb "dool" blk_t (Var d) ~bound:bP
                      (fun ib ~param ~i ->
                        Var
                          (B.loop1 ib "doolj" blk_t (Var param)
                             ~bound:(P.sub (P.sub bP P.one) i)
                             (fun jb ~param ~i:j2 ->
                               let j = P.sum [ i; P.one; j2 ] in
                               let piv = B.index jb param [ i; i ] in
                               let a_ji = B.index jb param [ j; i ] in
                               let l = B.fdiv jb a_ji piv in
                               let d1 = set_cell jb ~blk:param ~r:j ~c:i l in
                               Var
                                 (B.loop1 jb "doolt" blk_t (Var d1)
                                    ~bound:(P.sub (P.sub bP P.one) i)
                                    (fun tb2 ~param ~i:t2 ->
                                      let t = P.sum [ i; P.one; t2 ] in
                                      let a_jt =
                                        B.index tb2 param [ j; t ]
                                      in
                                      let a_it =
                                        B.index tb2 param [ i; t ]
                                      in
                                      let v =
                                        B.fsub tb2 a_jt (B.fmul tb2 l a_it)
                                      in
                                      Var
                                        (set_cell tb2 ~blk:param ~r:j ~c:t v))))))
                  in
                  [ Var final ])
            in
            let a1 =
              B.bind lb "a1"
                (EUpdate
                   {
                     dst = "am";
                     slc =
                       SLmad
                         (Lmad.make diag_base
                            [
                              Lmad.dim P.one nb;
                              Lmad.dim bP n;
                              Lmad.dim bP P.one;
                            ]);
                     src = SrcArr xd;
                   })
            in
            (* At the last step (k = q-1) the perimeter and interior are
               empty (m = 0): the yellow/blue/red phases reduce to
               zero-trip mapnests and empty-slice write-backs.
               Branching them away keeps the semantics and leaves the
               blue temporary's allocation local to the else arm, where
               the reuse pass's hoist-through-if-arms strategy lifts it
               in front of the conditional and then out of the loop. *)
            let kq = B.cmp lb CEq (B.idx lb k) (B.idx lb (P.sub q P.one)) in
            let anext =
              B.if_ lb "anext" kq
                (fun _tb -> [ Var a1 ])
                (fun lb ->
            (* ---- yellow: perimeter row U_kj = L_kk^-1 A_kj -------- *)
            let jv = B.fresh lb "j" in
            let top_base j =
              P.sum [ P.mul kb n; P.mul (P.add k P.one) bP; P.mul j bP ]
            in
            let xt =
              B.mapnest lb "xt"
                [ (jv, m) ]
                (fun tb ->
                  let t0 = load_block tb ~mat:a1 ~base:(top_base (P.var jv)) in
                  let final =
                    B.loop1 tb "fs" blk_t (Var t0) ~bound:bP
                      (fun rb ~param ~i:r ->
                        Var
                          (B.loop1 rb "fsc" blk_t (Var param) ~bound:bP
                             (fun cb ~param ~i:c ->
                               let acc =
                                 B.loop1 cb "fst" (TScalar F64)
                                   (Var
                                      (B.bind cb "tv"
                                         (EIndex (param, [ r; c ]))))
                                   ~bound:r
                                   (fun sb ~param:acc ~i:t ->
                                     let l_rt =
                                       B.index sb a1
                                         [
                                           P.sum
                                             [
                                               diag_base; P.mul r n; t;
                                             ];
                                         ]
                                     in
                                     let u_tc =
                                       B.index sb param [ t; c ]
                                     in
                                     B.fsub sb (Var acc)
                                       (B.fmul sb l_rt u_tc))
                               in
                               Var (set_cell cb ~blk:param ~r ~c (Var acc)))))
                  in
                  [ Var final ])
            in
            let a2 =
              B.bind lb "a2"
                (EUpdate
                   {
                     dst = a1;
                     slc =
                       SLmad
                         (Lmad.make (top_base P.zero)
                            [
                              Lmad.dim m bP;
                              Lmad.dim bP n;
                              Lmad.dim bP P.one;
                            ]);
                     src = SrcArr xt;
                   })
            in
            (* ---- blue: perimeter column L_ik = A_ik U_kk^-1 ------- *)
            let iv = B.fresh lb "i" in
            let left_base i =
              P.sum [ P.mul (P.add k P.one) (P.mul bP n); P.mul i nb; kb ]
            in
            let xl =
              B.mapnest lb "xl"
                [ (iv, m) ]
                (fun tb ->
                  let t0 =
                    load_block tb ~mat:a2 ~base:(left_base (P.var iv))
                  in
                  let final =
                    B.loop1 tb "bs" blk_t (Var t0) ~bound:bP
                      (fun cb0 ~param ~i:c ->
                        Var
                          (B.loop1 cb0 "bsr" blk_t (Var param) ~bound:bP
                             (fun rb ~param ~i:r ->
                               let acc =
                                 B.loop1 rb "bst" (TScalar F64)
                                   (Var
                                      (B.bind rb "tv"
                                         (EIndex (param, [ r; c ]))))
                                   ~bound:c
                                   (fun sb ~param:acc ~i:t ->
                                     let l_rt =
                                       B.index sb param [ r; t ]
                                     in
                                     let u_tc =
                                       B.index sb a2
                                         [
                                           P.sum
                                             [ diag_base; P.mul t n; c ];
                                         ]
                                     in
                                     B.fsub sb (Var acc)
                                       (B.fmul sb l_rt u_tc))
                               in
                               let piv =
                                 B.index rb a2
                                   [ P.sum [ diag_base; P.mul c n; c ] ]
                               in
                               let v = B.fdiv rb (Var acc) piv in
                               Var (set_cell rb ~blk:param ~r ~c v))))
                  in
                  [ Var final ])
            in
            let a3 =
              B.bind lb "a3"
                (EUpdate
                   {
                     dst = a2;
                     slc =
                       SLmad
                         (Lmad.make (left_base P.zero)
                            [
                              Lmad.dim m nb;
                              Lmad.dim bP n;
                              Lmad.dim bP P.one;
                            ]);
                     src = SrcArr xl;
                   })
            in
            (* ---- red: interior rank-b update ---------------------- *)
            let bi = B.fresh lb "bi" and bj = B.fresh lb "bj" in
            let int_base bi bj =
              P.sum
                [
                  P.mul (P.add k P.one) (P.mul bP n);
                  P.mul (P.add k P.one) bP;
                  P.mul bi nb;
                  P.mul bj bP;
                ]
            in
            let xi =
              B.mapnest lb "xi"
                [ (bi, m); (bj, m) ]
                (fun tb ->
                  let biP = P.var bi and bjP = P.var bj in
                  let t0 =
                    load_block tb ~mat:a3 ~base:(int_base biP bjP)
                  in
                  let final =
                    B.loop1 tb "upd" blk_t (Var t0) ~bound:bP
                      (fun rb ~param ~i:r ->
                        Var
                          (B.loop1 rb "updc" blk_t (Var param) ~bound:bP
                             (fun cb ~param ~i:c ->
                               let acc =
                                 B.loop1 cb "updt" (TScalar F64)
                                   (Var
                                      (B.bind cb "tv"
                                         (EIndex (param, [ r; c ]))))
                                   ~bound:bP
                                   (fun sb ~param:acc ~i:t ->
                                     (* L from the blue temporary, U from
                                        the in-place top strip *)
                                     let l_rt =
                                       B.index sb xl [ biP; r; t ]
                                     in
                                     let u_tc =
                                       B.index sb a3
                                         [
                                           P.sum
                                             [
                                               top_base bjP; P.mul t n; c;
                                             ];
                                         ]
                                     in
                                     B.fsub sb (Var acc)
                                       (B.fmul sb l_rt u_tc))
                               in
                               Var (set_cell cb ~blk:param ~r ~c (Var acc)))))
                  in
                  [ Var final ])
            in
            let a4 =
              B.bind lb "a4"
                (EUpdate
                   {
                     dst = a3;
                     slc =
                       SLmad
                         (Lmad.make
                            (int_base P.zero P.zero)
                            [
                              Lmad.dim m nb;
                              Lmad.dim m bP;
                              Lmad.dim bP n;
                              Lmad.dim bP P.one;
                            ]);
                     src = SrcArr xi;
                   })
            in
            [ Var a4 ])
            in
            [ Var (List.hd anext) ])
      in
      [ Var (List.hd res) ])

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
