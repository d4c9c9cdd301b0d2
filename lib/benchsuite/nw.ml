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
module Lmad = Lmads.Lmad
module B = Ir.Build
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

(* One wavefront step: given the current matrix variable [a], the block
   count [m] and the flat offset [woff] of the first block of the
   anti-diagonal, slice the bars, compute the blocks in parallel, and
   write them back with the LMAD update. *)
let diag_step bb ~a ~m ~woff =
  let n = P.var "n" and bP = P.var "b" in
  (* freshen all binder names: this function is instantiated once per
     matrix half, and binders must be unique program-wide *)
  let kv = B.fresh bb "k" in
  let rv_ = B.fresh bb "r" and cv_ = B.fresh bb "c" in
  let blkr = B.fresh bb "blkr" and blkc = B.fresh bb "blkc" in
  let nb_b = P.sub (P.mul n bP) bP in
  let rv =
    B.bind bb "rvert"
      (ESlice
         ( a,
           SLmad
             (Lmad.make
                (P.sub woff (P.add n P.one))
                [ Lmad.dim m nb_b; Lmad.dim (P.add bP P.one) n ]) ))
  in
  let rh =
    B.bind bb "rhoriz"
      (ESlice
         ( a,
           SLmad
             (Lmad.make (P.sub woff n) [ Lmad.dim m nb_b; Lmad.dim bP P.one ])
         ))
  in
  let x =
    B.mapnest bb "x"
      [ (kv, m) ]
      (fun tb ->
        let blk0 = B.bind tb "blk" (EScratch (F64, [ bP; bP ])) in
        let blk_names =
          B.loop tb "rows"
            [ (blkr, arr F64 [ bP; bP ], Var blk0) ]
            ~var:rv_ ~bound:bP
            (fun rb ->
              let cols =
                B.loop rb "cols"
                  [ (blkc, arr F64 [ bP; bP ], Var blkr) ]
                  ~var:cv_ ~bound:bP
                  (fun cb ->
                    let r = P.var rv_ and c = P.var cv_ and k = P.var kv in
                    let rz = B.cmp cb CEq (B.idx cb r) (Int 0) in
                    let cz = B.cmp cb CEq (B.idx cb c) (Int 0) in
                    let up =
                      B.if_ cb "up" rz
                        (fun ib -> [ B.index ib rh [ k; c ] ])
                        (fun ib ->
                          [ B.index ib blkc [ P.sub r P.one; c ] ])
                    in
                    let left =
                      B.if_ cb "left" cz
                        (fun ib -> [ B.index ib rv [ k; P.add r P.one ] ])
                        (fun ib ->
                          [ B.index ib blkc [ r; P.sub c P.one ] ])
                    in
                    let diag =
                      B.if_ cb "diag" rz
                        (fun ib ->
                          let v =
                            B.if_ ib "dc" cz
                              (fun jb -> [ B.index jb rv [ k; P.zero ] ])
                              (fun jb ->
                                [ B.index jb rh [ k; P.sub c P.one ] ])
                          in
                          List.map (fun v -> Var v) v)
                        (fun ib ->
                          let v =
                            B.if_ ib "dc" cz
                              (fun jb -> [ B.index jb rv [ k; r ] ])
                              (fun jb ->
                                [
                                  B.index jb blkc
                                    [ P.sub r P.one; P.sub c P.one ];
                                ])
                          in
                          List.map (fun v -> Var v) v)
                    in
                    let up = Var (List.hd up) and left = Var (List.hd left) in
                    let diag = Var (List.hd diag) in
                    (* substitution score from the flat cell position *)
                    let flat =
                      P.sum [ woff; P.mul k nb_b; P.mul r n; c ]
                    in
                    let fl = B.idx cb flat in
                    let h = B.binop cb Mul fl (Int 31) in
                    let h = B.binop cb Add h (Int 7) in
                    let h = B.binop cb Rem h (Int score_mod) in
                    let s = B.unop cb ToF64 h in
                    let s = B.binop cb Sub s (Float score_bias) in
                    let cand1 = B.fadd cb diag s in
                    let cand2 = B.fsub cb up (Var "penalty") in
                    let cand3 = B.fsub cb left (Var "penalty") in
                    let cell = B.fmax cb cand1 (B.fmax cb cand2 cand3) in
                    let blk' =
                      B.bind cb "blkc2"
                        (EUpdate
                           {
                             dst = blkc;
                             slc = STriplet [ SFix r; SFix c ];
                             src = SrcScalar cell;
                           })
                    in
                    [ Var blk' ])
              in
              [ Var (List.hd cols) ])
        in
        [ Var (List.hd blk_names) ])
  in
  let w =
    Lmad.make woff
      [ Lmad.dim m nb_b; Lmad.dim bP n; Lmad.dim bP P.one ]
  in
  B.bind bb "a_next" (EUpdate { dst = a; slc = SLmad w; src = SrcArr x })

let prog : prog =
  let n = P.var "n" and q = P.var "q" and bP = P.var "b" in
  let nn = P.mul n n in
  B.prog "nw" ~ctx:ctx0
    ~params:
      [
        pat_elem "q" i64;
        pat_elem "b" i64;
        pat_elem "n" i64;
        pat_elem "penalty" f64;
        pat_elem "a" (arr F64 [ nn ]);
      ]
    ~ret:[ arr F64 [ nn ] ]
    (fun bb ->
      (* first half: anti-diagonals 0 .. q-1, m = i+1 blocks *)
      let half1 =
        B.loop bb "h1"
          [ ("a1", arr F64 [ nn ], Var "a") ]
          ~var:"i" ~bound:q
          (fun lb ->
            let i = P.var "i" in
            let woff = P.sum [ P.mul i bP; n; P.one ] in
            let a' = diag_step lb ~a:"a1" ~m:(P.add i P.one) ~woff in
            [ Var a' ])
      in
      (* second half: anti-diagonals q .. 2q-2, m = q-1-s blocks *)
      let half2 =
        B.loop bb "h2"
          [ ("a2", arr F64 [ nn ], Var (List.hd half1)) ]
          ~var:"s"
          ~bound:(P.sub q P.one)
          (fun lb ->
            let s = P.var "s" in
            let woff =
              P.sum
                [
                  P.mul (P.add s P.one) (P.mul bP n);
                  P.mul (P.sub q P.one) bP;
                  n;
                  P.one;
                ]
            in
            let a' =
              diag_step lb ~a:"a2" ~m:(P.sub (P.sub q P.one) s) ~woff
            in
            [ Var a' ])
      in
      [ Var (List.hd half2) ])

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

let table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe () : Runner.outcome =
  Runner.run_table ?options ?reuse ?pack ?pool ?pool_cap ?fail_safe
    ~trace_args:(args ~q:3 ~b:4 ~penalty:10.0 ~shell:false)
    ~title:"Table I: NW performance" ~runs:1000 ~prog
    ~datasets:(datasets ()) ~paper ()

(* Reduced-size instance for full-mode validation in the test suite. *)
let small_args ~q ~b = args ~q ~b ~penalty:10.0 ~shell:false

let small_direct ~q ~b =
  let n = (q * b) + 1 in
  direct ~n ~penalty:10.0 (input ~n ~penalty:10.0)
