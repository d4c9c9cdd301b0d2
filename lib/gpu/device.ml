(* Device profiles for the GPU cost model.

   This is the substitution for the paper's NVIDIA A100 and AMD MI100
   testbeds (DESIGN.md, substitution 1).  The executor counts the
   events below while running a memory-annotated program; a profile
   converts them to simulated wall time.  Bandwidths are the public
   datasheet numbers; overheads are realistic per-launch costs.  The
   *relative* results (the paper's Unopt/Opt/Ref ratios) depend on the
   counted traffic, not on these constants' absolute values. *)

type t = {
  name : string;
  mem_bandwidth : float; (* bytes/second achievable global-memory BW *)
  copy_bandwidth : float; (* bytes/second for pure copies (r+w streams) *)
  flop_throughput : float; (* scalar-op units/second the model charges *)
  kernel_overhead : float; (* seconds per kernel launch *)
  copy_overhead : float; (* seconds per copy-engine operation *)
  alloc_miss_cost : float; (* seconds per fresh device allocation *)
  alloc_hit_cost : float; (* seconds per pool-served allocation *)
  free_sync_cost : float; (* seconds per device free (implicit sync) *)
}

(* NVIDIA A100 (SXM, 80 GB): 1555 GB/s HBM2e.  A fresh cudaMalloc is
   tens of microseconds (driver round-trip + VA mapping); a pool hit is
   a free-list pop.  cudaFree implicitly synchronizes the device, which
   is the reason caching allocators exist: a pooled free is a list push
   that costs nothing, an unpooled free pays [free_sync_cost]. *)
let a100 =
  {
    name = "A100";
    mem_bandwidth = 1.555e12;
    copy_bandwidth = 1.3e12; (* copies stream read+write; ~85% of peak *)
    flop_throughput = 6.0e12;
    kernel_overhead = 7.0e-6;
    copy_overhead = 1.2e-6;
    alloc_miss_cost = 10.0e-6;
    alloc_hit_cost = 0.5e-6;
    free_sync_cost = 10.0e-6;
  }

(* AMD MI100: 1228.8 GB/s HBM2. *)
let mi100 =
  {
    name = "MI100";
    mem_bandwidth = 1.2288e12;
    copy_bandwidth = 0.95e12;
    flop_throughput = 4.6e12;
    kernel_overhead = 10.0e-6;
    copy_overhead = 2.2e-6;
    alloc_miss_cost = 15.0e-6;
    alloc_hit_cost = 0.8e-6;
    free_sync_cost = 15.0e-6;
  }

(* ---------------------------------------------------------------- *)
(* Pooled allocator                                                  *)
(* ---------------------------------------------------------------- *)

(* A size-class free-list pool standing between the executor and the
   (simulated) device allocator, the mechanism that turns the reuse
   pass's alloc-count reductions into latency: a request is served from
   the free list of its power-of-two size class when possible (a *hit*,
   charged [alloc_hit_cost]) and falls through to a fresh device
   allocation otherwise (a *miss*, charged [alloc_miss_cost]).  Freed
   blocks keep their exact byte size on the free list, so a same-size
   request takes the exact-fit fast path; a differently-sized request
   in the same class reuses any free block large enough to hold it.
   The pool never returns memory to the device, mirroring the caching
   allocators of real array-language runtimes; a cap bounds the live
   memory it hands out, not what it keeps cached. *)
module Pool = struct
  type c = {
    classes : (int, float list ref) Hashtbl.t;
        (* class exponent -> free block sizes (bytes, newest first) *)
    cap : float option;
        (* live-memory budget: [refuses] turns away a request that
           would hand out more than this *)
    mutable device_bytes : float; (* total fresh device memory obtained *)
    mutable in_use : float; (* bytes currently handed out *)
    mutable high_water : float; (* max [in_use] ever observed *)
  }

  type nonrec t = c

  type snapshot = {
    s_classes : (int * float list) list;
    s_device_bytes : float;
    s_in_use : float;
    s_high_water : float;
  }

  type stats = {
    p_device_bytes : float;
    p_high_water : float;
    p_fragmentation : float;
        (* fraction of pool-owned device memory idle even at the
           high-water mark: (device - high) / device *)
  }

  let create ?cap () =
    {
      classes = Hashtbl.create 16;
      cap = Option.map float_of_int cap;
      device_bytes = 0.;
      in_use = 0.;
      high_water = 0.;
    }

  (* Smallest exponent [c] with 2^c >= bytes. *)
  let class_of bytes =
    let c = ref 0 and cap = ref 1. in
    while !cap < bytes do
      incr c;
      cap := !cap *. 2.
    done;
    !c

  let freelist t c =
    match Hashtbl.find_opt t.classes c with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.classes c l;
        l

  let note_use t bytes =
    t.in_use <- t.in_use +. bytes;
    if t.in_use > t.high_water then t.high_water <- t.in_use

  (* Remove the first list element satisfying [p]; None when absent. *)
  let take p l =
    let rec go acc = function
      | [] -> None
      | x :: rest when p x -> Some (x, List.rev_append acc rest)
      | x :: rest -> go (x :: acc) rest
    in
    go [] l

  (* Would [bytes] more of live memory push [in_use] past the cap?
     Cached free blocks do not count.  The executor asks this before
     every pooled allocation and degrades to unpooled execution on
     [Some cap]. *)
  let refuses t bytes =
    match t.cap with
    | Some cap when t.in_use +. bytes > cap -> Some cap
    | _ -> None

  (* Release every cached free block - a pool teardown in place.  The
     count returned is the number of synchronizing device frees the
     caller must price.  Used when the executor degrades to unpooled
     execution after a device fault. *)
  let flush t =
    let n = ref 0 in
    Hashtbl.iter
      (fun _ l ->
        List.iter
          (fun s ->
            t.device_bytes <- t.device_bytes -. s;
            incr n)
          !l;
        l := [])
      t.classes;
    !n

  (* Serve [bytes]: [`Hit served] pops a free block ([served] is its
     device size, >= bytes); [`Miss] obtains fresh device memory of
     exactly [bytes]. *)
  let alloc t bytes : [ `Hit of float | `Miss ] =
    let l = freelist t (class_of bytes) in
    let found =
      match take (fun s -> s = bytes) !l with
      | Some _ as r -> r (* exact-fit fast path *)
      | None -> take (fun s -> s >= bytes) !l
    in
    match found with
    | Some (served, rest) ->
        l := rest;
        note_use t served;
        `Hit served
    | None ->
        t.device_bytes <- t.device_bytes +. bytes;
        note_use t bytes;
        `Miss

  (* Return a block of device size [bytes] to its class free list. *)
  let free t bytes =
    let l = freelist t (class_of bytes) in
    l := bytes :: !l;
    t.in_use <- t.in_use -. bytes

  (* Undo a premature free: the block's contents turned out to still be
     needed (a later occupant of a coalesced block writes into it).  If
     its capacity is still on the free list it is simply reclaimed;
     if the pool already re-served it, fresh device memory stands in. *)
  let revive t bytes =
    let l = freelist t (class_of bytes) in
    (match take (fun s -> s = bytes) !l with
    | Some (_, rest) -> l := rest
    | None -> t.device_bytes <- t.device_bytes +. bytes);
    note_use t bytes

  let snapshot t : snapshot =
    {
      s_classes = Hashtbl.fold (fun c l acc -> (c, !l) :: acc) t.classes [];
      s_device_bytes = t.device_bytes;
      s_in_use = t.in_use;
      s_high_water = t.high_water;
    }

  let restore t (s : snapshot) =
    Hashtbl.reset t.classes;
    List.iter (fun (c, l) -> Hashtbl.replace t.classes c (ref l)) s.s_classes;
    t.device_bytes <- s.s_device_bytes;
    t.in_use <- s.s_in_use;
    t.high_water <- s.s_high_water

  let stats t : stats =
    {
      p_device_bytes = t.device_bytes;
      p_high_water = t.high_water;
      p_fragmentation =
        (if t.device_bytes <= 0. then 0.
         else (t.device_bytes -. t.high_water) /. t.device_bytes);
    }

  let pp_stats ppf (s : stats) =
    Fmt.pf ppf "pool: %.3g B device, %.3g B high-water, %.1f%% fragmentation"
      s.p_device_bytes s.p_high_water (100. *. s.p_fragmentation)
end

(* Event counters accumulated by the executor. *)
type counters = {
  mutable kernels : int;
  mutable kernel_reads : float; (* bytes read by kernels *)
  mutable kernel_writes : float; (* bytes written by kernels *)
  mutable flops : float; (* scalar operations inside kernels *)
  mutable copies : int; (* copy operations actually performed *)
  mutable copy_bytes : float; (* bytes moved by those copies *)
  mutable copies_elided : int; (* copies skipped by short-circuiting *)
  mutable elided_bytes : float;
  mutable allocs : int;
  mutable alloc_bytes : float;
  mutable arena_allocs : int; (* packed-arena allocations among [allocs] *)
  mutable arena_bytes : float; (* bytes those arenas cover *)
  mutable scratch_allocs : int; (* per-thread allocations inside kernels *)
  mutable scratch_bytes : float; (* bytes those scratch allocations cover *)
  mutable pool_hits : int; (* allocations served from the pool *)
  mutable pool_misses : int; (* allocations falling through to the device *)
  mutable frees : int; (* device frees (pool disabled: each one syncs) *)
  mutable peak_bytes : float;
  mutable live_bytes : float;
}

let fresh_counters () =
  {
    kernels = 0;
    kernel_reads = 0.;
    kernel_writes = 0.;
    flops = 0.;
    copies = 0;
    copy_bytes = 0.;
    copies_elided = 0;
    elided_bytes = 0.;
    allocs = 0;
    alloc_bytes = 0.;
    arena_allocs = 0;
    arena_bytes = 0.;
    scratch_allocs = 0;
    scratch_bytes = 0.;
    pool_hits = 0;
    pool_misses = 0;
    frees = 0;
    peak_bytes = 0.;
    live_bytes = 0.;
  }

(* Simulated execution time of the counted events on a device: kernels
   are bandwidth- or compute-bound (the max of the two roofline terms),
   copies stream through the copy engine, and every launch/allocation
   pays its overhead. *)
(* Fraction of the smaller roofline term hidden behind the larger one:
   perfect overlap (1.0) would make bandwidth-side optimizations
   invisible inside compute-bound kernels, which real GPUs do not
   achieve; no overlap (0.0) double-charges. *)
let overlap = 0.7

let time (d : t) (c : counters) : float =
  let kernel_traffic = (c.kernel_reads +. c.kernel_writes) /. d.mem_bandwidth in
  let kernel_compute = c.flops /. d.flop_throughput in
  let kernel =
    Float.max kernel_traffic kernel_compute
    +. ((1.0 -. overlap) *. Float.min kernel_traffic kernel_compute)
  in
  let copies = (2.0 *. c.copy_bytes /. d.copy_bandwidth)
               +. (float_of_int c.copies *. d.copy_overhead) in
  let launches = float_of_int c.kernels *. d.kernel_overhead in
  (* Pool hits pay the (cheap) hit cost, misses the full device-side
     cost; allocations made with the pool disabled (hits = misses = 0)
     all go to the device and pay the miss cost. *)
  let unpooled = c.allocs - c.pool_hits - c.pool_misses in
  let allocs =
    (float_of_int (c.pool_misses + unpooled) *. d.alloc_miss_cost)
    +. (float_of_int c.pool_hits *. d.alloc_hit_cost)
  in
  (* Only pool-less runs accumulate [frees]: a pooled free is a free
     list push, an unpooled one is a synchronizing device call. *)
  let frees = float_of_int c.frees *. d.free_sync_cost in
  kernel +. copies +. launches +. allocs +. frees

(* Counter snapshots for sampled cost estimation. *)
let clone (c : counters) : counters =
  {
    kernels = c.kernels;
    kernel_reads = c.kernel_reads;
    kernel_writes = c.kernel_writes;
    flops = c.flops;
    copies = c.copies;
    copy_bytes = c.copy_bytes;
    copies_elided = c.copies_elided;
    elided_bytes = c.elided_bytes;
    allocs = c.allocs;
    alloc_bytes = c.alloc_bytes;
    arena_allocs = c.arena_allocs;
    arena_bytes = c.arena_bytes;
    scratch_allocs = c.scratch_allocs;
    scratch_bytes = c.scratch_bytes;
    pool_hits = c.pool_hits;
    pool_misses = c.pool_misses;
    frees = c.frees;
    peak_bytes = c.peak_bytes;
    live_bytes = c.live_bytes;
  }

let assign (dst : counters) (src : counters) : unit =
  dst.kernels <- src.kernels;
  dst.kernel_reads <- src.kernel_reads;
  dst.kernel_writes <- src.kernel_writes;
  dst.flops <- src.flops;
  dst.copies <- src.copies;
  dst.copy_bytes <- src.copy_bytes;
  dst.copies_elided <- src.copies_elided;
  dst.elided_bytes <- src.elided_bytes;
  dst.allocs <- src.allocs;
  dst.alloc_bytes <- src.alloc_bytes;
  dst.arena_allocs <- src.arena_allocs;
  dst.arena_bytes <- src.arena_bytes;
  dst.scratch_allocs <- src.scratch_allocs;
  dst.scratch_bytes <- src.scratch_bytes;
  dst.pool_hits <- src.pool_hits;
  dst.pool_misses <- src.pool_misses;
  dst.frees <- src.frees;
  dst.peak_bytes <- src.peak_bytes;
  dst.live_bytes <- src.live_bytes

(* [add_simpson dst samples n] adds the Simpson-weighted per-iteration
   deltas, n * (d0 + 4*dmid + dlast) / 6, to [dst]; integer fields are
   rounded once on the combined value so constant per-iteration counts
   stay exact. *)
let add_simpson (dst : counters)
    ((b0, a0) : counters * counters) ((bm, am) : counters * counters)
    ((bl, al) : counters * counters) (n : float) : unit =
  let wf d0 dm dl = n *. (d0 +. (4. *. dm) +. dl) /. 6.0 in
  let wi f =
    let d0 = float_of_int (f a0 - f b0)
    and m = float_of_int (f am - f bm)
    and l = float_of_int (f al - f bl) in
    int_of_float (Float.round (wf d0 m l))
  in
  let wflt f = wf (f a0 -. f b0) (f am -. f bm) (f al -. f bl) in
  dst.kernels <- dst.kernels + wi (fun c -> c.kernels);
  dst.kernel_reads <- dst.kernel_reads +. wflt (fun c -> c.kernel_reads);
  dst.kernel_writes <- dst.kernel_writes +. wflt (fun c -> c.kernel_writes);
  dst.flops <- dst.flops +. wflt (fun c -> c.flops);
  dst.copies <- dst.copies + wi (fun c -> c.copies);
  dst.copy_bytes <- dst.copy_bytes +. wflt (fun c -> c.copy_bytes);
  dst.copies_elided <- dst.copies_elided + wi (fun c -> c.copies_elided);
  dst.elided_bytes <- dst.elided_bytes +. wflt (fun c -> c.elided_bytes);
  dst.allocs <- dst.allocs + wi (fun c -> c.allocs);
  dst.alloc_bytes <- dst.alloc_bytes +. wflt (fun c -> c.alloc_bytes);
  dst.arena_allocs <- dst.arena_allocs + wi (fun c -> c.arena_allocs);
  dst.arena_bytes <- dst.arena_bytes +. wflt (fun c -> c.arena_bytes);
  dst.scratch_allocs <- dst.scratch_allocs + wi (fun c -> c.scratch_allocs);
  dst.scratch_bytes <- dst.scratch_bytes +. wflt (fun c -> c.scratch_bytes);
  dst.pool_hits <- dst.pool_hits + wi (fun c -> c.pool_hits);
  dst.pool_misses <- dst.pool_misses + wi (fun c -> c.pool_misses);
  dst.frees <- dst.frees + wi (fun c -> c.frees);
  (* Live bytes extrapolate like any other accumulating quantity; the
     peak cannot be summed, so take the largest transient any sampled
     iteration showed *within itself* - how far it pushed the peak
     above both the peak at its start and its own ending live line -
     and replay it on top of the extrapolated live volume (transient
     in-kernel scratch spikes recur every iteration but do not stack).
     Measuring against the start-of-iteration snapshot keeps a stale
     program-wide maximum (a large temporary freed before the loop)
     from being re-added on top of the extrapolation, and an iteration
     that never raises the running peak contributes zero. *)
  dst.live_bytes <- dst.live_bytes +. wflt (fun c -> c.live_bytes);
  let overhang =
    List.fold_left
      (fun acc (b, a) ->
        Float.max acc (a.peak_bytes -. Float.max b.peak_bytes a.live_bytes))
      0.
      [ (b0, a0); (bm, am); (bl, al) ]
  in
  dst.peak_bytes <- Float.max dst.peak_bytes (dst.live_bytes +. overhang)
