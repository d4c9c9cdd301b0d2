(** Device profiles and the cost model standing in for the paper's
    NVIDIA A100 / AMD MI100 testbeds (DESIGN.md, substitution 1).

    The executor counts events; {!time} converts them to simulated wall
    time: kernels follow a roofline with partial overlap of memory and
    compute, copies stream through the copy engine, and every
    launch/allocation pays an overhead.  Allocation overhead is
    two-tier: a fresh device allocation costs {!type-t.alloc_miss_cost}
    while one served from the {!Pool} costs the much smaller
    {!type-t.alloc_hit_cost}, which is what makes the reuse pass's
    alloc-count reductions visible as latency.  The relative benchmark
    results (the paper's Unopt/Opt/Ref ratios) derive from the counted
    traffic, not from the absolute constants. *)

type t = {
  name : string;
  mem_bandwidth : float;  (** bytes/s achievable global-memory bandwidth *)
  copy_bandwidth : float;  (** bytes/s for pure copies (read+write streams) *)
  flop_throughput : float;  (** scalar-op units per second *)
  kernel_overhead : float;  (** seconds per kernel launch *)
  copy_overhead : float;  (** seconds per copy-engine operation *)
  alloc_miss_cost : float;  (** seconds per fresh device allocation *)
  alloc_hit_cost : float;  (** seconds per pool-served allocation *)
  free_sync_cost : float;
      (** seconds per device free; [cudaFree]/[hipFree] implicitly
          synchronize the device, which is the very reason caching
          allocators exist.  Pooled frees are free-list pushes and are
          never charged this. *)
}

val a100 : t
(** NVIDIA A100 (SXM, 80 GB): 1555 GB/s HBM2e. *)

val mi100 : t
(** AMD MI100: 1228.8 GB/s HBM2. *)

(** A size-class free-list pool between the executor and the simulated
    device allocator.  Requests are served from the free list of their
    power-of-two size class when possible (a {e hit}); freed blocks
    keep their exact size, giving same-size requests an exact-fit fast
    path.  The pool never returns memory to the device, mirroring the
    caching allocators of real array-language runtimes. *)
module Pool : sig
  type t

  type snapshot
  (** Deep copy of the pool's free lists and accounting, used by the
      executor to replay sampled loop iterations against a fixed
      steady-state pool. *)

  (** Footprint summary of a run's pool behaviour. *)
  type stats = {
    p_device_bytes : float;  (** total fresh device memory obtained *)
    p_high_water : float;  (** max bytes simultaneously handed out *)
    p_fragmentation : float;
        (** fraction of pool-owned device memory idle even at the
            high-water mark: [(device - high) / device] *)
  }

  val create : ?cap:int -> unit -> t
  (** [create ?cap ()] makes an empty pool.  [cap] (bytes) bounds the
      live memory the pool hands out: {!refuses} turns away a request
      past it.  Cached free blocks do not count against it. *)

  val alloc : t -> float -> [ `Hit of float | `Miss ]
  (** [alloc t bytes] serves a request: [`Hit served] pops a free block
      of device size [served >= bytes]; [`Miss] obtains fresh device
      memory of exactly [bytes].  The caller must remember the served
      size and pass it back to {!free}. *)

  val free : t -> float -> unit
  (** Return a block of the given device size to its class free list. *)

  val revive : t -> float -> unit
  (** Undo a premature {!free}: the block's contents are needed after
      all (a later occupant of a coalesced block writes into it).  If
      its capacity is still on the free list it is reclaimed; if
      already re-served, fresh device memory stands in. *)

  val refuses : t -> float -> float option
  (** [refuses t bytes] is [Some cap] when handing out [bytes] more of
      live memory would take the total handed out past the cap, and
      [None] without a cap.  The executor asks before every pooled
      allocation and degrades to unpooled execution on a refusal. *)

  val flush : t -> int
  (** Release every cached free block (a pool teardown in place),
      returning how many were released; each is a synchronizing device
      free the caller must price.  Used when the executor degrades to
      unpooled execution after a device fault. *)

  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit

  val stats : t -> stats
  val pp_stats : Format.formatter -> stats -> unit
end

(** Event counters accumulated by the executor. *)
type counters = {
  mutable kernels : int;
  mutable kernel_reads : float;  (** DRAM bytes read by kernels *)
  mutable kernel_writes : float;  (** bytes written by kernels *)
  mutable flops : float;  (** scalar operations inside kernels *)
  mutable copies : int;  (** top-level copy operations performed *)
  mutable copy_bytes : float;
  mutable copies_elided : int;  (** copies skipped by short-circuiting *)
  mutable elided_bytes : float;
  mutable allocs : int;
  mutable alloc_bytes : float;
  mutable arena_allocs : int;
      (** packed-arena allocations among {!allocs}: each arena is one
          device allocation (one pool miss) suballocated to its members
          at the offsets chosen by {!Core.Pack} *)
  mutable arena_bytes : float;
      (** bytes covered by those arena allocations - the executed arena
          extents, recorded per dataset in [BENCH.json] (lifetime holes
          make this {e smaller} than the members' summed sizes) *)
  mutable scratch_allocs : int;
      (** per-thread allocations made inside kernels (CUDA local-memory
          model); never pooled and not charged allocation overhead, but
          counted toward {!peak_bytes} for the duration of their kernel *)
  mutable scratch_bytes : float;
  mutable pool_hits : int;  (** top-level allocations served by the pool *)
  mutable pool_misses : int;
      (** top-level allocations falling through to the device; with the
          pool disabled both stay 0 and every allocation is charged
          {!type-t.alloc_miss_cost} *)
  mutable frees : int;
      (** synchronizing device frees, charged
          {!type-t.free_sync_cost} each; only accumulated when the pool
          is disabled (pooled frees go to the free lists instead) *)
  mutable peak_bytes : float;
      (** high-water mark of [live_bytes] plus any in-flight kernel
          scratch *)
  mutable live_bytes : float;
}

val fresh_counters : unit -> counters

val overlap : float
(** Fraction of the smaller roofline term hidden behind the larger. *)

val time : t -> counters -> float
(** Simulated execution time of the counted events on the device. *)

val clone : counters -> counters
val assign : counters -> counters -> unit

val add_simpson :
  counters -> counters * counters -> counters * counters ->
  counters * counters -> float -> unit
(** [add_simpson dst (b0,a0) (bm,am) (bl,al) n] adds the
    Simpson-weighted loop estimate [n * (d0 + 4*dmid + dlast) / 6]
    built from three (before, after) per-iteration snapshots; integer
    fields are rounded once on the combined value. *)

