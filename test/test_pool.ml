(* Tests for the size-class allocation pool (Device.Pool) and its cost
   model.

   Three layers: the pool data structure itself (size classes,
   exact-fit fast path, high-water accounting), the executor's
   integration (every top-level allocation is either a hit or a miss;
   disabling the pool changes no memory counter, only the charged
   time), and the end-to-end claim of this PR - with the pool enabled
   the modeled times are strictly cheaper than without, including in
   the reuse column, because an unpooled run pays a synchronizing
   device free for every allocation it made. *)

module Device = Gpu.Device
module Pool = Gpu.Device.Pool
module Exec = Gpu.Exec

(* ---------------------------------------------------------------- *)
(* Pool unit tests                                                   *)
(* ---------------------------------------------------------------- *)

let hit = function
  | `Hit served -> served
  | `Miss _ -> Alcotest.fail "expected hit"

let miss = function `Miss _ -> () | `Hit _ -> Alcotest.fail "expected miss"

let test_pool_exact_fit () =
  let p = Pool.create () in
  miss (Pool.alloc p 800.);
  Pool.free p 800.;
  (* same size: exact-fit fast path serves the same block *)
  Alcotest.(check (float 0.0)) "exact refit" 800. (hit (Pool.alloc p 800.));
  (* nothing left on the free list: next request misses again *)
  miss (Pool.alloc p 800.)

let test_pool_class_fit () =
  let p = Pool.create () in
  miss (Pool.alloc p 1000.);
  Pool.free p 1000.;
  (* 700 rounds up to the same 1024-byte class: the free 1000-byte
     block is large enough and gets reused as-is *)
  Alcotest.(check (float 0.0)) "class refit" 1000. (hit (Pool.alloc p 700.));
  (* 300 lives in a smaller class: no free block there, miss *)
  miss (Pool.alloc p 300.)

let test_pool_exact_fit_preferred () =
  let p = Pool.create () in
  miss (Pool.alloc p 1024.);
  miss (Pool.alloc p 1000.);
  Pool.free p 1024.;
  Pool.free p 1000.;
  (* both free blocks sit in class 2^10; the exact-size one wins even
     though the 1024-byte block was freed first *)
  Alcotest.(check (float 0.0)) "exact preferred" 1000.
    (hit (Pool.alloc p 1000.))

let test_pool_no_undersized_hit () =
  let p = Pool.create () in
  miss (Pool.alloc p 520.);
  Pool.free p 520.;
  (* 1000 shares class 2^10 with the free 520-byte block, but that
     block is too small to hold it: must miss, never truncate *)
  miss (Pool.alloc p 1000.)

let test_pool_stats () =
  let p = Pool.create () in
  miss (Pool.alloc p 1000.);
  Pool.free p 1000.;
  ignore (hit (Pool.alloc p 700.));
  miss (Pool.alloc p 1000.);
  let s = Pool.stats p in
  (* two misses obtained fresh device memory; the hit did not *)
  Alcotest.(check (float 0.0)) "device bytes" 2000. s.Pool.p_device_bytes;
  (* high water: the recycled 1000-byte block and the second miss were
     simultaneously out *)
  Alcotest.(check (float 0.0)) "high water" 2000. s.Pool.p_high_water;
  Alcotest.(check (float 0.0)) "no idle memory at the peak" 0.
    s.Pool.p_fragmentation

let test_pool_fragmentation () =
  let p = Pool.create () in
  miss (Pool.alloc p 1000.);
  Pool.free p 1000.;
  (* a request in a different class cannot reuse the free block *)
  miss (Pool.alloc p 100.);
  let s = Pool.stats p in
  Alcotest.(check (float 0.0)) "device bytes" 1100. s.Pool.p_device_bytes;
  Alcotest.(check (float 0.0)) "high water" 1000. s.Pool.p_high_water;
  (* 100 of 1100 pool-owned bytes were idle even at the peak *)
  Alcotest.(check (float 1e-9)) "fragmentation" (100. /. 1100.)
    s.Pool.p_fragmentation

let test_pool_cap_evicts () =
  let p = Pool.create ~cap:2048 () in
  miss (Pool.alloc p 1000.);
  miss (Pool.alloc p 1000.);
  Pool.free p 1000.;
  Pool.free p 1000.;
  (* 2000 B obtained, all cached.  A 2000 B request lives in the empty
     2^11 class, so it must miss; growing to 4000 B would breach the
     cap, so both cached 1000 B blocks are evicted first. *)
  (match Pool.alloc p 2000. with
  | `Miss 2 -> ()
  | `Miss n -> Alcotest.failf "expected 2 evictions, got %d" n
  | `Hit _ -> Alcotest.fail "expected miss");
  let s = Pool.stats p in
  Alcotest.(check (float 0.0)) "device bytes back under cap" 2000.
    s.Pool.p_device_bytes;
  Alcotest.(check int) "evictions counted" 2 s.Pool.p_evictions;
  Alcotest.(check bool) "cap recorded" true (s.Pool.p_cap = Some 2048.)

let test_pool_cap_never_refuses_live () =
  (* live memory above the cap is still served - the cap only bounds
     cache growth, so with nothing cached every alloc is a plain miss *)
  let p = Pool.create ~cap:1024 () in
  miss (Pool.alloc p 1000.);
  (match Pool.alloc p 1000. with
  | `Miss 0 -> ()
  | `Miss n -> Alcotest.failf "nothing cached, yet %d evictions" n
  | `Hit _ -> Alcotest.fail "expected miss");
  let s = Pool.stats p in
  Alcotest.(check (float 0.0)) "live memory granted past the cap" 2000.
    s.Pool.p_device_bytes

let test_pool_evicts_largest_first () =
  let p = Pool.create ~cap:6000 () in
  (* cache three blocks of distinct sizes, freed smallest-first so
     eviction order cannot accidentally track free order *)
  miss (Pool.alloc p 600.);
  miss (Pool.alloc p 1000.);
  miss (Pool.alloc p 4000.);
  Pool.free p 600.;
  Pool.free p 1000.;
  Pool.free p 4000.;
  (* 2048 lives in the empty 2^11 class: a miss.  5600 + 2048 breaches
     the cap; evicting the 4000-byte block alone brings it back under,
     so exactly one - the largest - is released. *)
  (match Pool.alloc p 2048. with
  | `Miss 1 -> ()
  | `Miss n -> Alcotest.failf "expected 1 eviction, got %d" n
  | `Hit _ -> Alcotest.fail "expected miss");
  let s = Pool.stats p in
  Alcotest.(check (float 0.0)) "device bytes under cap" 3648.
    s.Pool.p_device_bytes;
  (* the smaller blocks are still cached - both refit - while the
     evicted 4000-byte block is gone and must miss again *)
  Alcotest.(check (float 0.0)) "1000 kept" 1000. (hit (Pool.alloc p 1000.));
  Alcotest.(check (float 0.0)) "600 kept" 600. (hit (Pool.alloc p 600.));
  (match Pool.alloc p 4000. with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "evicted block cannot be re-served")

let test_pool_cap_oversized_block_served () =
  (* a single live block larger than the whole cap is still granted:
     the caches are emptied first, then the request goes through *)
  let p = Pool.create ~cap:1024 () in
  miss (Pool.alloc p 512.);
  Pool.free p 512.;
  (match Pool.alloc p 4096. with
  | `Miss 1 -> ()
  | `Miss n -> Alcotest.failf "expected 1 eviction, got %d" n
  | `Hit _ -> Alcotest.fail "expected miss");
  let s = Pool.stats p in
  Alcotest.(check (float 0.0)) "oversized block live past the cap" 4096.
    s.Pool.p_device_bytes;
  Alcotest.(check int) "cache emptied on the way" 1 s.Pool.p_evictions

(* ---------------------------------------------------------------- *)
(* Executor integration                                              *)
(* ---------------------------------------------------------------- *)

let hotspot_args = Benchsuite.Hotspot.small_args ~n:16 ~steps:3

let compiled = lazy (Core.Pipeline.compile Benchsuite.Hotspot.prog)

let run ?pool p = Exec.run ~mode:Exec.Cost_only ?pool p hotspot_args

(* Every top-level allocation is classified: hits + misses = allocs on
   a run without sampled loops. *)
let test_hits_plus_misses () =
  let cpl = Lazy.force compiled in
  List.iter
    (fun (label, p) ->
      let c = (run p).Exec.counters in
      Alcotest.(check int)
        (label ^ ": hits + misses = allocs")
        c.Device.allocs
        (c.Device.pool_hits + c.Device.pool_misses))
    (Core.Pipeline.variants cpl)

(* Disabling the pool is invisible to every memory counter - it only
   changes how the events are priced.  This is the A/B guarantee that
   keeps --no-pool comparable with the footprint numbers recorded
   before the pool existed. *)
let test_no_pool_identity () =
  let cpl = Lazy.force compiled in
  let a = (run cpl.Core.Pipeline.unopt).Exec.counters in
  let r_off = run ~pool:false cpl.Core.Pipeline.unopt in
  let b = r_off.Exec.counters in
  Alcotest.(check int) "allocs" a.Device.allocs b.Device.allocs;
  Alcotest.(check (float 0.0)) "alloc bytes" a.Device.alloc_bytes
    b.Device.alloc_bytes;
  Alcotest.(check (float 0.0)) "peak bytes" a.Device.peak_bytes
    b.Device.peak_bytes;
  Alcotest.(check int) "scratch" a.Device.scratch_allocs
    b.Device.scratch_allocs;
  Alcotest.(check int) "kernels" a.Device.kernels b.Device.kernels;
  (* the pool-side accounting is all-or-nothing *)
  Alcotest.(check int) "no hits without a pool" 0 b.Device.pool_hits;
  Alcotest.(check int) "no misses without a pool" 0 b.Device.pool_misses;
  Alcotest.(check bool) "no pool stats" true (r_off.Exec.pool = None);
  Alcotest.(check int) "pooled run counts no device frees" 0 a.Device.frees;
  (* without a pool every allocation is eventually a synchronizing
     device free *)
  Alcotest.(check int) "unpooled frees = allocs" b.Device.allocs
    b.Device.frees

(* The cost model makes the pool measurable: on every device profile
   the pooled run is strictly cheaper, in every variant - the reuse
   and pack columns included, whose single surviving allocation still
   pays its teardown free when unpooled. *)
let test_pool_strictly_cheaper () =
  let cpl = Lazy.force compiled in
  List.iter
    (fun device ->
      List.iter
        (fun (label, p) ->
          let t_on = Device.time device (run p).Exec.counters in
          let t_off =
            Device.time device (run ~pool:false p).Exec.counters
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: pooled strictly cheaper"
               device.Device.name label)
            true
            (t_on < t_off))
        (Core.Pipeline.variants cpl))
    [ Device.a100; Device.mi100 ]

(* The high-water mark can never exceed the run's own peak accounting,
   and a pooled unopt run must recycle memory (device bytes strictly
   below the total allocation volume). *)
let test_pool_recycles () =
  let cpl = Lazy.force compiled in
  let r = run cpl.Core.Pipeline.unopt in
  let c = r.Exec.counters in
  match r.Exec.pool with
  | None -> Alcotest.fail "expected pool stats"
  | Some s ->
      Alcotest.(check bool) "hits happened" true (c.Device.pool_hits > 0);
      Alcotest.(check bool) "device bytes < alloc volume" true
        (s.Pool.p_device_bytes < c.Device.alloc_bytes);
      Alcotest.(check bool) "high water <= device bytes" true
        (s.Pool.p_high_water <= s.Pool.p_device_bytes)

(* A capped pooled run prices each eviction as a synchronizing device
   free: the memory counters are untouched by the cap, but the modeled
   time is strictly worse than the uncapped pooled run whenever
   evictions actually happened. *)
let test_pool_eviction_priced_synchronizing () =
  (* NW's unoptimized program interleaves allocation size classes, so
     a cap of zero forces the pool to release cached blocks *)
  let cpl = Core.Pipeline.compile Benchsuite.Nw.prog in
  let p = cpl.Core.Pipeline.unopt in
  let args = Benchsuite.Nw.small_args ~q:2 ~b:4 in
  let r_free = Exec.run ~mode:Exec.Cost_only p args in
  let r_capped = Exec.run ~mode:Exec.Cost_only ~pool_cap:0 p args in
  let a = r_free.Exec.counters and b = r_capped.Exec.counters in
  let evictions =
    match r_capped.Exec.pool with
    | Some s -> s.Pool.p_evictions
    | None -> Alcotest.fail "expected pool stats"
  in
  Alcotest.(check bool) "cap at 0 forces evictions" true (evictions > 0);
  Alcotest.(check int) "each eviction is a counted device free" evictions
    b.Device.frees;
  Alcotest.(check int) "uncapped run frees nothing" 0 a.Device.frees;
  (* the cap changes pricing, never memory behaviour *)
  Alcotest.(check int) "allocs unchanged" a.Device.allocs b.Device.allocs;
  Alcotest.(check (float 0.0)) "peak unchanged" a.Device.peak_bytes
    b.Device.peak_bytes;
  List.iter
    (fun device ->
      Alcotest.(check bool)
        (device.Device.name ^ ": evictions make the capped run dearer")
        true
        (Device.time device b > Device.time device a))
    [ Device.a100; Device.mi100 ]

let tests =
  [
    Alcotest.test_case "pool: exact-fit fast path" `Quick test_pool_exact_fit;
    Alcotest.test_case "pool: same-class refit" `Quick test_pool_class_fit;
    Alcotest.test_case "pool: exact fit preferred over first fit" `Quick
      test_pool_exact_fit_preferred;
    Alcotest.test_case "pool: no undersized hit" `Quick
      test_pool_no_undersized_hit;
    Alcotest.test_case "pool: device/high-water accounting" `Quick
      test_pool_stats;
    Alcotest.test_case "pool: fragmentation accounting" `Quick
      test_pool_fragmentation;
    Alcotest.test_case "pool: cap evicts cached blocks" `Quick
      test_pool_cap_evicts;
    Alcotest.test_case "pool: cap never refuses live memory" `Quick
      test_pool_cap_never_refuses_live;
    Alcotest.test_case "pool: cap evicts largest-first" `Quick
      test_pool_evicts_largest_first;
    Alcotest.test_case "pool: oversized live block still served" `Quick
      test_pool_cap_oversized_block_served;
    Alcotest.test_case "cost: evictions priced as synchronizing frees" `Quick
      test_pool_eviction_priced_synchronizing;
    Alcotest.test_case "exec: hits + misses = allocs" `Quick
      test_hits_plus_misses;
    Alcotest.test_case "exec: --no-pool changes no counter" `Quick
      test_no_pool_identity;
    Alcotest.test_case "cost: pooled run strictly cheaper" `Quick
      test_pool_strictly_cheaper;
    Alcotest.test_case "pool: memory actually recycled" `Quick
      test_pool_recycles;
  ]
