(* Tests for the arena-packing pass (Core.Pack).

   Four angles:

   - the pass itself: programs whose blocks survive reuse get packed
     into one arena at provably disjoint offsets - the whole-program
     planner folds the escaping result block in too - so the pack
     variant allocates less than the reuse variant below it, which is
     the same compile without packing; and packing is a strict
     improvement where the benchmarks offer members (OptionPricing's
     two top-level blocks, LocVolCalib's tridiagonal pair promoted
     across the time loop into the program arena) and a no-op where
     they do not (NW retains no blocks after reuse);

   - forged certificates are refuted: a [Packed_disjoint] claim with
     overlapping offsets, a [Fits_in_arena] claim past the arena's
     extent, a pair [Hole_disjoint] claim whose members overlap in
     both address space and time, and an iteration [Hole_disjoint]
     claim for a member that escapes its loop's body result must all
     fall to the independent checker, with a concrete witness or a
     structural reason, never a shrug;

   - a mutated placement is rejected statically: rebasing two
     interfering equal-sized members to the same offset is a total
     clobber, and Memlint's reuse rule errors on it;

   - a qcheck property: random pack-shaped programs (k fills of
     distinct sizes, all live until a final combine) and random phased
     programs (members dying in waves, so lifetime holes open up) lint,
     certify, replay (memtrace) and skeleton-diff clean end to end, each
     in one arena - with every member packed in the first, and at least
     one lifetime hole in the second. *)

open Ir
open Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Build
module C = Core.Certify
module ML = Core.Memlint
module MT = Core.Memtrace
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn

let c = P.const
let n = P.var "n"
let ctx_n2 = Pr.add_range Pr.empty "n" ~lo:(c 2) ()

let fill b name cnt seed =
  B.mapnest b name [ (B.fresh b "i", cnt) ] (fun bb ->
      [ B.fadd bb (Float seed) (Float 0.0) ])

(* [k] fills, all live until a final elementwise combine: pairwise
   interfering, so packing must place all of them - at distinct
   offsets - inside one arena.  [grow] staggers the sizes (n, n+1,
   ...) to exercise first-fit over unequal extents; without it all
   members share size [n]. *)
let gen_pack ?(grow = true) k =
  B.prog "packgen" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let fills =
        List.init k (fun i ->
            let sz = if grow then P.add n (c i) else n in
            fill b (Printf.sprintf "x%d" i) sz (float_of_int (i + 1)))
      in
      let iv = B.fresh b "i" in
      let s =
        B.mapnest b "sum" [ (iv, n) ] (fun bb ->
            [
              List.fold_left
                (fun acc f -> B.fadd bb acc (B.index bb f [ P.var iv ]))
                (Float 0.0) fills;
            ])
      in
      [ Var s ])

let args nv = [ Value.VInt nv ]

(* ---------------------------------------------------------------- *)
(* The pass packs                                                    *)
(* ---------------------------------------------------------------- *)

let test_pack_two_fills () =
  let cpl = Core.Pipeline.compile (gen_pack 2) in
  let st = cpl.Core.Pipeline.pack_stats in
  Alcotest.(check int) "one arena" 1 st.Core.Pack.arenas;
  (* the whole-program planner packs the escaping result too: its
     interval is open-ended (the arena outlives the program body) *)
  Alcotest.(check int) "all three members placed" 3 st.Core.Pack.packed;
  Alcotest.(check int) "nothing stays out" 0 st.Core.Pack.unpacked;
  Alcotest.(check int) "member allocs absorbed" 3
    cpl.Core.Pipeline.pack_dead_allocs;
  let run p =
    (Gpu.Exec.run ~mode:Gpu.Exec.Cost_only p (args 8)).Gpu.Exec.counters
  in
  let r = run cpl.Core.Pipeline.reuse and k = run cpl.Core.Pipeline.pack in
  Alcotest.(check bool) "pack allocates less than reuse" true
    (k.Gpu.Device.allocs < r.Gpu.Device.allocs);
  Alcotest.(check int) "the arena is counted" 1 k.Gpu.Device.arena_allocs;
  Alcotest.(check bool) "peak never grows" true
    (k.Gpu.Device.peak_bytes <= r.Gpu.Device.peak_bytes);
  (* both variants compute the same thing *)
  let full p = (Gpu.Exec.run ~mode:Gpu.Exec.Full p (args 8)).Gpu.Exec.results in
  Alcotest.(check bool) "results agree" true
    (full cpl.Core.Pipeline.reuse = full cpl.Core.Pipeline.pack)

(* ---------------------------------------------------------------- *)
(* Strict improvements on the benchmarks that offer members          *)
(* ---------------------------------------------------------------- *)

let test_benchmark_improvements () =
  let counters prog variant args =
    let cpl = Core.Pipeline.compile prog in
    let p = List.assoc variant (Core.Pipeline.variants cpl) in
    (Gpu.Exec.run ~mode:Gpu.Exec.Cost_only p args).Gpu.Exec.counters
  in
  (* OptionPricing: the two surviving top-level blocks pack into one
     arena - strictly fewer device allocations (2 -> 1) *)
  let op_args = Benchsuite.Option_pricing.args ~npaths:64 ~nsteps:16 in
  let r = counters Benchsuite.Option_pricing.prog "reuse" op_args in
  let k = counters Benchsuite.Option_pricing.prog "pack" op_args in
  Alcotest.(check int) "optionpricing: reuse leaves two blocks" 2
    r.Gpu.Device.allocs;
  Alcotest.(check int) "optionpricing: packed into one arena" 1
    k.Gpu.Device.allocs;
  Alcotest.(check int) "optionpricing: the block is an arena" 1
    k.Gpu.Device.arena_allocs;
  Alcotest.(check bool) "optionpricing: peak never grows" true
    (k.Gpu.Device.peak_bytes <= r.Gpu.Device.peak_bytes);
  (* LocVolCalib: the whole-program planner promotes the tridiagonal
     pair (cp, dp) across the time loop and the result kernel into the
     program arena - the per-iteration scratch allocations disappear
     entirely, the static allocation count strictly decreases
     (3 EAllocs -> 1 arena), and the modeled peak shrinks (the
     promoted regions are charged once, not per in-flight thread) *)
  let lv_args = Benchsuite.Locvolcalib.args ~numo:4 ~numx:8 ~numt:3 in
  let lv = Core.Pipeline.compile Benchsuite.Locvolcalib.prog in
  let static_allocs p =
    let n = ref 0 in
    let rec go (b : block) =
      List.iter
        (fun (s : stm) ->
          (match s.exp with EAlloc _ -> incr n | _ -> ());
          match s.exp with
          | EMap { body; _ } | ELoop { body; _ } -> go body
          | EIf { tb; fb; _ } ->
              go tb;
              go fb
          | _ -> ())
        b.stms
    in
    go p.body;
    !n
  in
  Alcotest.(check int) "locvolcalib: reuse leaves three static allocs" 3
    (static_allocs lv.Core.Pipeline.reuse);
  Alcotest.(check int) "locvolcalib: the planner leaves one" 1
    (static_allocs lv.Core.Pipeline.pack);
  Alcotest.(check int) "locvolcalib: two members promoted cross-scope" 2
    lv.Core.Pipeline.pack_stats.Core.Pack.promoted;
  Alcotest.(check int) "locvolcalib: two iteration holes certified" 2
    lv.Core.Pipeline.pack_stats.Core.Pack.holes;
  let r = counters Benchsuite.Locvolcalib.prog "reuse" lv_args in
  let k = counters Benchsuite.Locvolcalib.prog "pack" lv_args in
  Alcotest.(check bool) "locvolcalib: scratch allocs strictly drop" true
    (k.Gpu.Device.scratch_allocs < r.Gpu.Device.scratch_allocs);
  Alcotest.(check int) "locvolcalib: no scratch allocs remain" 0
    k.Gpu.Device.scratch_allocs;
  Alcotest.(check bool) "locvolcalib: peak strictly shrinks" true
    (k.Gpu.Device.peak_bytes < r.Gpu.Device.peak_bytes);
  (* NW: reuse leaves no block behind, so packing must be an exact
     no-op - it never degrades a program it cannot improve *)
  let nw_args = Benchsuite.Nw.small_args ~q:2 ~b:4 in
  let r = counters Benchsuite.Nw.prog "reuse" nw_args in
  let k = counters Benchsuite.Nw.prog "pack" nw_args in
  Alcotest.(check int) "nw: allocs unchanged" r.Gpu.Device.allocs
    k.Gpu.Device.allocs;
  Alcotest.(check (float 0.0)) "nw: peak unchanged" r.Gpu.Device.peak_bytes
    k.Gpu.Device.peak_bytes

(* ---------------------------------------------------------------- *)
(* Forged certificates are refuted with concrete witnesses           *)
(* ---------------------------------------------------------------- *)

(* The memory IR of [gen_pack 2] allocates x0's block (n elements) and
   x1's block (n+1): real allocations for the checker to re-derive
   sizes from, so only the offsets below are forged. *)
let two_blocks p =
  let mems =
    List.filter_map
      (fun (s : stm) ->
        match (s.pat, s.exp) with
        | [ pe ], EAlloc _ when pe.pt = TMem -> Some pe.pv
        | _ -> None)
      p.body.stms
  in
  match mems with
  | a :: b :: _ -> (a, b)
  | _ -> Alcotest.fail "expected two allocated blocks"

let test_forged_offset_refuted () =
  let p = Core.Pipeline.to_memory_ir (gen_pack 2) in
  let pre = Ir.Clone.clone_prog p in
  let ma, mb = two_blocks p in
  let r = C.recorder ~pass:"pack" in
  let rw = C.Packing { arena = ma; members = [ ma; mb ] } in
  (* placements [0, n) and [1, n+2): overlapping for every n >= 2 *)
  C.emit r rw ~ctx:ctx_n2
    (C.Packed_disjoint
       {
         arena = ma;
         a = ma;
         a_off = P.zero;
         a_size = n;
         b = mb;
         b_off = P.one;
         b_size = P.add n P.one;
       });
  let report = C.check ~pass:"pack" ~pre ~post:p (C.obligations r) in
  Alcotest.(check bool) "forged offset refuted" true (not (C.ok report));
  match C.failures report with
  | [ { verdict = C.Failed msg; _ } ] ->
      Alcotest.(check bool) "refutation carries a concrete witness" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected exactly one Failed obligation"

let test_forged_extent_refuted () =
  let p = Core.Pipeline.to_memory_ir (gen_pack 2) in
  let pre = Ir.Clone.clone_prog p in
  let ma, mb = two_blocks p in
  let r = C.recorder ~pass:"pack" in
  let rw = C.Packing { arena = ma; members = [ mb ] } in
  (* the "arena" (x0's block) holds n elements; placing the (n+1)-deep
     member at offset 2 ends at n+3 - past the extent at every n *)
  C.emit r rw ~ctx:ctx_n2
    (C.Fits_in_arena
       {
         arena = ma;
         member = mb;
         off = c 2;
         size = P.add n P.one;
         extent = n;
       });
  let report = C.check ~pass:"pack" ~pre ~post:p (C.obligations r) in
  Alcotest.(check bool) "forged extent refuted" true (not (C.ok report))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_forged_hole_pair_refuted () =
  let p = Core.Pipeline.to_memory_ir (gen_pack 2) in
  let pre = Ir.Clone.clone_prog p in
  let ma, mb = two_blocks p in
  let r = C.recorder ~pass:"pack" in
  let rw = C.Packing { arena = ma; members = [ ma; mb ] } in
  (* a hole claim over members that overlap in address space ([0, n)
     vs [1, n+2)) AND in time (both fills live until the combine): the
     checker must re-derive the live ranges, see them intersect, and
     refute with a concrete overlapping offset *)
  C.emit r rw ~ctx:ctx_n2
    (C.Hole_disjoint
       {
         arena = ma;
         a = ma;
         a_off = P.zero;
         a_size = n;
         b = mb;
         b_off = P.one;
         b_size = P.add n P.one;
         iter = None;
       });
  let report = C.check ~pass:"pack" ~pre ~post:p (C.obligations r) in
  Alcotest.(check bool) "forged hole refuted" true (not (C.ok report));
  match C.failures report with
  | [ { verdict = C.Failed msg; _ } ] ->
      Alcotest.(check bool) "witness names an overlapping offset" true
        (contains msg "lies in both placements")
  | _ -> Alcotest.fail "expected exactly one Failed obligation"

(* A loop whose body builds a fresh array every iteration and yields
   it: the freshly written contents escape through the body result, so
   the slot cannot be re-occupied across iterations - the lifetime
   hole a forged iteration claim asserts does not exist. *)
let gen_escaping_loop () =
  B.prog "holegen" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let init = fill b "init" n 0.0 in
      let acc =
        B.loop1 b "acc" (arr F64 [ n ]) (Var init) ~bound:(c 4)
          (fun bb ~param ~i:_ ->
            let j = B.fresh bb "j" in
            let fresh =
              B.mapnest bb "fresh" [ (j, n) ] (fun bbb ->
                  [ B.fadd bbb (B.index bbb param [ P.var j ]) (Float 1.0) ])
            in
            Var fresh)
      in
      [ Var acc ])

let test_forged_hole_iter_refuted () =
  let p = Core.Pipeline.to_memory_ir (gen_escaping_loop ()) in
  let pre = Ir.Clone.clone_prog p in
  let loop_s =
    match
      List.find_opt
        (fun (s : stm) -> match s.exp with ELoop _ -> true | _ -> false)
        p.body.stms
    with
    | Some s -> s
    | None -> Alcotest.fail "expected a top-level loop"
  in
  let loop_binding = (List.hd loop_s.pat).pv in
  let body =
    match loop_s.exp with ELoop { body; _ } -> body | _ -> assert false
  in
  let rec first_alloc (b : block) =
    List.find_map
      (fun (s : stm) ->
        match s.exp with
        | EAlloc _ -> Some (List.hd s.pat).pv
        | EMap { body; _ } | ELoop { body; _ } -> first_alloc body
        | EIf { tb; fb; _ } -> (
            match first_alloc tb with
            | Some v -> Some v
            | None -> first_alloc fb)
        | _ -> None)
      b.stms
  in
  let member =
    match first_alloc body with
    | Some m -> m
    | None -> Alcotest.fail "expected an allocation inside the loop body"
  in
  let r = C.recorder ~pass:"pack" in
  let rw = C.Packing { arena = member; members = [ member ] } in
  C.emit r rw ~ctx:ctx_n2
    (C.Hole_disjoint
       {
         arena = member;
         a = member;
         a_off = P.zero;
         a_size = n;
         b = member;
         b_off = P.zero;
         b_size = n;
         iter = Some loop_binding;
       });
  let report = C.check ~pass:"pack" ~pre ~post:p (C.obligations r) in
  Alcotest.(check bool) "forged iteration hole refuted" true
    (not (C.ok report));
  match C.failures report with
  | [ { verdict = C.Failed msg; _ } ] ->
      Alcotest.(check bool) "refutation names the escape" true
        (contains msg "escape")
  | _ -> Alcotest.fail "expected exactly one Failed obligation"

(* ---------------------------------------------------------------- *)
(* Memlint rejects an overlapping interfering placement              *)
(* ---------------------------------------------------------------- *)

let zero_pe (pe : pat_elem) =
  match pe.pmem with
  | Some mi when Core.Pack.is_arena mi.block -> (
      match List.rev (Ixfn.chain mi.ixfn) with
      | last :: before when not (P.is_zero (Lmad.offset last)) ->
          let last' = Lmad.make P.zero (Lmad.dims last) in
          pe.pmem <-
            Some { mi with ixfn = Ixfn.of_chain (List.rev (last' :: before)) }
      | _ -> ())
  | _ -> ()

let rec zero_arena_offsets (b : block) =
  List.iter
    (fun (s : stm) ->
      List.iter zero_pe s.pat;
      match s.exp with
      | EMap { body; _ } -> zero_arena_offsets body
      | ELoop { params; body; _ } ->
          List.iter (fun (pe, _) -> zero_pe pe) params;
          zero_arena_offsets body
      | EIf { tb; fb; _ } ->
          zero_arena_offsets tb;
          zero_arena_offsets fb
      | _ -> ())
    b.stms

let test_memlint_rejects_overlap () =
  (* equal sizes: after forcing both placements to offset 0 the two
     interfering members' memory LMADs are equal - a total clobber the
     reuse rule must Error on, not merely warn *)
  let cpl = Core.Pipeline.compile (gen_pack ~grow:false 2) in
  Alcotest.(check int) "the honest program packed" 1
    cpl.Core.Pipeline.pack_stats.Core.Pack.arenas;
  let honest = ML.check ~stage:"pack" cpl.Core.Pipeline.pack in
  Alcotest.(check int) "honest placements lint clean" 0
    (List.length (ML.errors honest));
  let mutated = Ir.Clone.clone_prog cpl.Core.Pipeline.pack in
  zero_arena_offsets mutated.body;
  let report = ML.check ~stage:"pack" mutated in
  Alcotest.(check bool) "overlapping placement rejected" true
    (List.length (ML.errors report) > 0)

(* ---------------------------------------------------------------- *)
(* qcheck: packed random programs verify end to end                  *)
(* ---------------------------------------------------------------- *)

let render_skeleton t =
  List.map
    (fun e -> Fmt.str "%a" Core.Trace.pp_skeleton_event e)
    (Core.Trace.skeleton t)

(* [phases] waves of [k] fills each: a wave's fills die at that wave's
   combine, while the per-wave sums survive to a final combine.  Fills
   of different waves never interfere, so the planner can stack them
   into lifetime holes. *)
let gen_phased phases k =
  B.prog "phasegen" ~ctx:ctx_n2 ~params:[ pat_elem "n" i64 ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let sums =
        List.init phases (fun ph ->
            let fills =
              List.init k (fun i ->
                  let sz = P.add n (c ((ph + i) mod (k + 1))) in
                  fill b
                    (Printf.sprintf "p%dx%d" ph i)
                    sz
                    (float_of_int (i + 1)))
            in
            let iv = B.fresh b "i" in
            B.mapnest b (Printf.sprintf "s%d" ph) [ (iv, n) ] (fun bb ->
                [
                  List.fold_left
                    (fun acc f -> B.fadd bb acc (B.index bb f [ P.var iv ]))
                    (Float 0.0) fills;
                ]))
      in
      let iv = B.fresh b "i" in
      let tot =
        B.mapnest b "tot" [ (iv, n) ] (fun bb ->
            [
              List.fold_left
                (fun acc s -> B.fadd bb acc (B.index bb s [ P.var iv ]))
                (Float 0.0) sums;
            ])
      in
      [ Var tot ])

(* Lint, certificates, a memtrace replay of the packed variant, and the
   reuse/pack results and trace skeletons of one linted, certified
   compile. *)
let verify_packed what cpl nv =
  (match Core.Pipeline.first_lint_error cpl.Core.Pipeline.lint with
  | None -> ()
  | Some (stage, v) ->
      QCheck.Test.fail_reportf "%s: lint error after %s: %a" what stage
        ML.pp_violation v);
  (match Core.Pipeline.first_cert_failure cpl.Core.Pipeline.certs with
  | None -> ()
  | Some (pass, ch) ->
      QCheck.Test.fail_reportf "%s: refuted obligation in %s: %a" what pass
        C.pp_checked ch);
  let traced p =
    Gpu.Exec.run ~mode:Gpu.Exec.Full ~trace:true ~variant:"qc" p (args nv)
  in
  let rr = traced cpl.Core.Pipeline.reuse
  and rk = traced cpl.Core.Pipeline.pack in
  let mt = MT.check (Option.get rk.Gpu.Exec.trace) in
  if mt.MT.violations <> [] then
    QCheck.Test.fail_reportf "%s: memtrace violation on the packed variant"
      what;
  if rr.Gpu.Exec.results <> rk.Gpu.Exec.results then
    QCheck.Test.fail_reportf "%s: reuse and pack variants disagree" what;
  render_skeleton (Option.get rr.Gpu.Exec.trace)
  = render_skeleton (Option.get rk.Gpu.Exec.trace)

let prop_packed_programs_verify =
  QCheck.Test.make ~name:"packed programs lint+certify+replay clean" ~count:(Qcount.count 6)
    (QCheck.make
       ~print:(fun (k, ph, nv) ->
         Printf.sprintf "fills=%d phases=%d n=%d" k ph nv)
       QCheck.Gen.(triple (int_range 2 4) (int_range 2 3) (int_range 2 6)))
    (fun (k, ph, nv) ->
      let compile = Core.Pipeline.compile ~lint:true ~certify:true in
      let fills = compile (gen_pack k) and phased = compile (gen_phased ph k) in
      let st = fills.Core.Pipeline.pack_stats in
      (* k fills plus the escaping result, all in one program arena *)
      if st.Core.Pack.arenas <> 1 || st.Core.Pack.packed <> k + 1 then
        QCheck.Test.fail_reportf "expected %d members in one arena, got %d/%d"
          (k + 1) st.Core.Pack.arenas st.Core.Pack.packed;
      let st = phased.Core.Pipeline.pack_stats in
      (* the waves stack into lifetime holes of one arena *)
      if st.Core.Pack.arenas <> 1 || st.Core.Pack.holes < 1 then
        QCheck.Test.fail_reportf "phased: %d arenas, %d holes (want 1, >= 1)"
          st.Core.Pack.arenas st.Core.Pack.holes;
      verify_packed "fills" fills nv && verify_packed "phased" phased nv)

let tests =
  [
    Alcotest.test_case "two interfering fills pack into one arena" `Quick
      test_pack_two_fills;
    Alcotest.test_case "benchmark improvements are strict" `Quick
      test_benchmark_improvements;
    Alcotest.test_case "mutation: forged offset refuted" `Quick
      test_forged_offset_refuted;
    Alcotest.test_case "mutation: forged extent refuted" `Quick
      test_forged_extent_refuted;
    Alcotest.test_case "mutation: forged pair hole refuted" `Quick
      test_forged_hole_pair_refuted;
    Alcotest.test_case "mutation: forged iteration hole refuted" `Quick
      test_forged_hole_iter_refuted;
    Alcotest.test_case "mutation: memlint rejects overlapping placement"
      `Quick test_memlint_rejects_overlap;
    QCheck_alcotest.to_alcotest prop_packed_programs_verify;
  ]
