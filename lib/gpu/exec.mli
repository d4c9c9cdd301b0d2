(** The memory-aware executor: runs memory-annotated programs against
    the GPU cost model.

    Arrays are (block, concrete index function) pairs; change-of-layout
    operations are free; copies at updates, concats, [copy] and mapnest
    result writes are {e elided} whenever the source already lives at
    the destination location - precisely what short-circuiting arranges.
    Full mode computes real values (validated against the reference
    interpreter); cost-only mode runs control flow and sizes exactly but
    samples mapnest bodies at the index-space midpoint and long loops at
    Simpson points, enabling paper-scale datasets.

    The traffic model charges every in-kernel read/write 8 bytes, with
    two locality refinements: a thread's re-reads of locations it wrote
    itself are free (registers/shared memory), and a kernel's total DRAM
    reads from one block are capped at the block's footprint (perfect
    L2 within a launch).

    With [~trace:true] the run additionally produces a {!Core.Trace.t}:
    a structured event log of allocations, kernel launches (with their
    declared-vs-actual footprints), copies and their elision decisions,
    and last-use markers, ready for the {!Core.Memtrace} cross-check.

    Variables live in one frame per run.  Before executing, {!run}
    resolves the program once: every binder occurrence (parameters and
    their memory blocks, pattern elements, loop parameters and counters,
    mapnest indices) gets its own slot, and every use - atoms, array and
    block operands, last-use markers, each variable of each index
    polynomial - is rewritten to its slot.  The same walk records a
    mapnest's declared reads and destinations in its launch scope, so no
    name is looked up while the program runs.  A variable no binder in
    scope defines raises {!Exec_error} ["exec: unbound ..."] only if the
    run evaluates it.  Block ids are numbered per run, so a run is a
    pure function of (program, arguments): the same call gives the same
    report and a byte-identical trace whatever the process ran before. *)

exception Exec_error of string

type mode = Full | Cost_only

(** Fault injection for testing the dynamic checker:
    [Off_by_one_write] shifts every in-kernel cell write by one
    element.  The static annotations are untouched, so {!Core.Memlint}
    still passes - only the {!Core.Memtrace} cross-check of a traced
    run observes the bug. *)
type mutation = Off_by_one_write

type report = {
  results : Ir.Value.t list;
      (** program results; shape-only shells in cost-only mode *)
  counters : Device.counters;
  trace : Core.Trace.t option;  (** present iff run with [~trace:true] *)
  pool : Device.Pool.stats option;
      (** pool footprint summary; present iff run with [~pool:true]
          {e and} the pool survived the run (a contained device fault
          degrades to unpooled execution and drops the pool) *)
  faults : Core.Fault.t list;
      (** device faults contained by the fail-safe degradation, in
          occurrence order; empty on a clean run *)
}

val run :
  ?mode:mode ->
  ?trace:bool ->
  ?pool:bool ->
  ?pool_cap:int ->
  ?variant:string ->
  ?mutation:mutation ->
  ?fail_safe:bool ->
  ?strict_cap:bool ->
  ?oom_at:int ->
  Ir.Ast.prog ->
  Ir.Value.t list ->
  report
(** Execute a memory-annotated program on the given arguments.
    [?trace] (default [false]) collects a {!Core.Trace.t} as the run
    proceeds; [?pool] (default [true]) routes top-level allocations
    through a {!Device.Pool}, splitting the allocation count into pool
    hits and misses for the cost model (disable for an A/B against the
    all-miss allocator); [?pool_cap] (bytes) bounds the pool's device
    footprint - cache evictions forced by the cap are priced as
    synchronizing device frees; [?variant] labels the trace's
    provenance (which pipeline stage produced the program, e.g.
    ["opt"]).

    [?fail_safe] (default [true]) contains device-layer faults by
    degrading to unpooled execution: the pool's cached blocks are
    flushed (priced as synchronizing frees - the degradation penalty)
    and the run continues, recording the fault in {!report.faults};
    with [~fail_safe:false] the fault is raised as {!Core.Fault.Fault}
    instead.  [?strict_cap] (default [false]) makes a [?pool_cap]
    refuse {e live} memory past the cap (a {!Core.Fault.Pool_cap}
    fault), not just bound cache growth.  [?oom_at] (default [0] =
    never) injects a simulated device OOM refusing allocation number
    [oom_at] (1-based, counting top-level and in-kernel scratch
    allocations) - the chaos harness's executor-side fault.

    Offset-exact footprints require [Full] mode; a cost-only trace
    keeps the event structure with sampled traffic numbers.
    @raise Exec_error on missing annotations or out-of-bounds accesses
    (full mode checks bounds on every access). *)

val time : Device.t -> report -> float
(** Simulated time of a completed run on a device profile. *)
