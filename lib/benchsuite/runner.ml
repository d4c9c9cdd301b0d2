(* Shared machinery for the benchmark suite: compiling a benchmark
   program once, executing every pipeline variant in cost-only mode on
   every dataset, timing the counted events on each device profile,
   and assembling a paper-style table. *)

module Device = Gpu.Device
module Exec = Gpu.Exec
module Value = Ir.Value

type ref_model =
  | Static of Device.counters (* hand-modelled reference trace *)
  | From_opt of (Device.counters -> Device.counters)
      (* reference derived from the measured optimized trace (used when
         the hand-written code runs the same algorithm with a different
         register/tiling regime, e.g. LUD) *)

type dataset = {
  label : string;
  args : Ir.Value.t list; (* paper-scale arguments (cost-only mode) *)
  ref_counters : ref_model;
}

(* One of the paper's benchmarks: its program, the reduced size every
   Full-mode check runs it at, and its paper-scale table. *)
type bench = {
  name : string; (* as the CLI and BENCH.json name it *)
  table_no : int; (* the paper's Table I-VII *)
  title : string;
  runs : int;
  prog : Ir.Ast.prog;
  small_args : unit -> Ir.Value.t list;
      (* fresh arrays on every call, so no two runs share them *)
  datasets : unit -> dataset list;
  paper : (string * string * (float * float * float * float)) list;
      (* (device, dataset label, the published numbers of [Table.row]) *)
}

let devices = [ Device.a100; Device.mi100 ]

(* Measured-vs-modeled traffic: a Full-mode traced run counts every
   DRAM access the optimized program makes, while a cost-only run of
   the same program at the same (reduced) size *models* that traffic by
   sampling mapnest bodies and long loops.  Exact agreement is what
   licenses the paper-scale cost-only numbers in the tables; the
   memtrace cross-check rides along, so the plain table report also
   confirms the dynamic footprints stayed inside the static
   annotations. *)
type traffic_cmp = {
  measured_rw : float; (* kernel read+write bytes, Full-mode trace *)
  modeled_rw : float; (* same, cost-only sampled run *)
  measured_copy : float;
  modeled_copy : float;
  check : Core.Memtrace.report; (* cross-check of the Full trace *)
}

(* The memory behaviour of one variant on one dataset: allocation
   count and volume (the footprint motivation of section I, realized
   by the dead-allocation cleanup and the reuse pass) plus the modeled
   peak of live device memory. *)
type footprint = {
  f_allocs : int; (* top-level allocations *)
  f_arena_allocs : int; (* packed arenas among [f_allocs] *)
  f_arena_bytes : float; (* executed arena extents *)
  f_scratch : int; (* in-kernel (thread-private) allocations *)
  f_alloc_bytes : float;
  f_peak_bytes : float;
  f_traffic_bytes : float;
      (* modeled DRAM traffic: kernel reads + writes + copies (the
         bench gate requires this monotone non-increasing across
         unopt -> opt -> reuse) *)
  f_pool_hits : int; (* allocations served from the pool's free lists *)
  f_pool_misses : int; (* allocations falling through to the device *)
  f_pool : Device.Pool.stats option;
      (* high-water/fragmentation summary; [None] when the run was made
         with the pool disabled *)
}

let footprint_of (r : Exec.report) : footprint =
  let c = r.Exec.counters in
  {
    f_allocs = c.Device.allocs;
    f_arena_allocs = c.Device.arena_allocs;
    f_arena_bytes = c.Device.arena_bytes;
    f_scratch = c.Device.scratch_allocs;
    f_alloc_bytes = c.Device.alloc_bytes +. c.Device.scratch_bytes;
    f_peak_bytes = c.Device.peak_bytes;
    f_traffic_bytes =
      c.Device.kernel_reads +. c.Device.kernel_writes +. c.Device.copy_bytes;
    f_pool_hits = c.Device.pool_hits;
    f_pool_misses = c.Device.pool_misses;
    f_pool = r.Exec.pool;
  }

type outcome = {
  table : Table.t;
  compiled : Core.Pipeline.compiled;
  footprints : (string * (string * footprint) list) list;
      (* dataset label, each variant's memory behaviour in ladder
         order *)
}

let traffic_comparison (compiled : Core.Pipeline.compiled)
    (args : Ir.Value.t list) : traffic_cmp =
  let opt = compiled.Core.Pipeline.opt in
  let r_full = Exec.run ~mode:Exec.Full ~trace:true ~variant:"opt" opt args in
  let r_cost = Exec.run ~mode:Exec.Cost_only opt args in
  let t =
    match r_full.Exec.trace with Some t -> t | None -> assert false
  in
  let tr = Core.Trace.traffic t in
  {
    measured_rw =
      tr.Core.Trace.t_kernel_reads +. tr.Core.Trace.t_kernel_writes;
    modeled_rw =
      r_cost.Exec.counters.Device.kernel_reads
      +. r_cost.Exec.counters.Device.kernel_writes;
    measured_copy = tr.Core.Trace.t_copy_bytes;
    modeled_copy = r_cost.Exec.counters.Device.copy_bytes;
    check = Core.Memtrace.check t;
  }

let run_table ?options ?reuse ?pack ?(pool = true) ?(fail_safe = true)
    (b : bench) : outcome =
  (* Every table run certifies: the checked per-pass certificates ride
     along in [compiled.certs] for the bench JSON record.  Table runs
     compile fail-safe by default: a crashing or refuted pass degrades
     the affected variant instead of aborting the table, with the
     contained faults reported in [compiled.recovery]. *)
  let compiled =
    Core.Pipeline.compile ?options ?reuse ?pack ~certify:true ~fail_safe b.prog
  in
  let paper dev ds =
    List.find_map
      (fun (d, l, nums) -> if d = dev && l = ds then Some nums else None)
      b.paper
  in
  (* counters are device-independent: execute once per dataset *)
  let measured =
    List.map
      (fun ds ->
        let runs =
          List.map
            (fun (v, p) ->
              (v, Exec.run ~mode:Exec.Cost_only ~pool p ds.args))
            (Core.Pipeline.variants compiled)
        in
        let ref_c =
          match ds.ref_counters with
          | Static c -> c
          | From_opt f -> f (List.assoc "opt" runs).Exec.counters
        in
        (ds, ref_c, runs))
      (b.datasets ())
  in
  let rows =
    List.concat_map
      (fun device ->
        List.map
          (fun (ds, ref_c, runs) ->
            Table.make_row ~device:device.Device.name ~dataset:ds.label
              ~ref_time:(Device.time device ref_c)
              ~times:
                (List.map
                   (fun (v, (r : Exec.report)) ->
                     (v, Device.time device r.counters))
                   runs)
              ~paper:(paper device.Device.name ds.label))
          measured)
      devices
  in
  let footprints =
    List.map
      (fun (ds, _, runs) ->
        (ds.label, List.map (fun (v, r) -> (v, footprint_of r)) runs))
      measured
  in
  {
    table = { Table.title = b.title; runs = b.runs; rows };
    compiled;
    footprints;
  }

(* Traced execution of every pipeline variant at a reduced size, each
   cross-checked by Memtrace.  This is the dynamic complement of
   [validate]: validate confirms the optimized program computes the
   right *values*, trace_check confirms it touched the right
   *memory*. *)
type traced = { trace : Core.Trace.t; check : Core.Memtrace.report }

let trace_variant ~variant (p : Ir.Ast.prog) (args : Ir.Value.t list) : traced
    =
  let r = Exec.run ~mode:Exec.Full ~trace:true ~variant p args in
  let t = match r.Exec.trace with Some t -> t | None -> assert false in
  { trace = t; check = Core.Memtrace.check t }

let compiled_or (compiled : Core.Pipeline.compiled option) prog =
  match compiled with Some c -> c | None -> Core.Pipeline.compile prog

(* Every variant traced and cross-checked, in ladder order. *)
let trace_check ?(compiled : Core.Pipeline.compiled option)
    (prog : Ir.Ast.prog) (args : Ir.Value.t list) : (string * traced) list =
  List.map
    (fun (variant, p) -> (variant, trace_variant ~variant p args))
    (Core.Pipeline.variants (compiled_or compiled prog))

(* Full-mode validation at a reduced size: every variant must agree
   with the reference interpreter bit for bit ([Value.bit_equal], the
   invariant chaos enforces too). *)
type validation = {
  ok : (string * bool) list; (* per variant, in ladder order *)
  elided : int;
  copies_unopt : int;
  copies_opt : int;
  sc_succeeded : int;
}

let validate ?(compiled : Core.Pipeline.compiled option)
    (prog : Ir.Ast.prog) (args : Ir.Value.t list) : validation =
  let compiled = compiled_or compiled prog in
  let expect = Ir.Interp.run compiled.Core.Pipeline.source args in
  let runs =
    List.map
      (fun (v, p) -> (v, Exec.run ~mode:Exec.Full p args))
      (Core.Pipeline.variants compiled)
  in
  let counters v = (List.assoc v runs).Exec.counters in
  {
    ok =
      List.map
        (fun (v, (r : Exec.report)) ->
          (v, List.for_all2 Value.bit_equal expect r.results))
        runs;
    elided = (counters "opt").Device.copies_elided;
    copies_unopt = (counters "unopt").Device.copies;
    copies_opt = (counters "opt").Device.copies;
    sc_succeeded = compiled.Core.Pipeline.stats.Core.Shortcircuit.succeeded;
  }
