(* Shared machinery for the benchmark suite: compiling a benchmark
   program once, executing the unoptimized and short-circuited variants
   in cost-only mode on every dataset, timing the counted events on
   each device profile, and assembling a paper-style table. *)

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

let devices = [ Device.a100; Device.mi100 ]

(* Paper numbers are keyed by (device, dataset label). *)
type paper_numbers = (string * string, float * float * float * float) Hashtbl.t

let paper_tbl rows : paper_numbers =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (dev, ds, nums) -> Hashtbl.replace t (dev, ds) nums)
    rows;
  t

(* Measured-vs-modeled traffic: a Full-mode traced run counts every
   DRAM access the optimized program makes, while a cost-only run of
   the same program at the same (reduced) size *models* that traffic by
   sampling mapnest bodies and long loops.  Close agreement is what
   licenses the paper-scale cost-only numbers in the tables; the
   memtrace cross-check rides along so every table also confirms the
   dynamic footprints stayed inside the static annotations. *)
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
  footprints :
    (string * footprint * footprint * footprint * footprint) list;
      (* dataset label, unoptimized / optimized / reused / packed
         memory behaviour *)
  traffic : traffic_cmp option;
      (* present when the benchmark supplied reduced-size [trace_args] *)
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

let run_table ?options ?reuse ?pack ?(pool = true) ?pool_cap
    ?(fail_safe = true) ?trace_args ~title ~runs ~(prog : Ir.Ast.prog)
    ~(datasets : dataset list)
    ~(paper : (string * string * (float * float * float * float)) list) () :
    outcome =
  (* Every table run certifies: the checked per-pass certificates ride
     along in [compiled.certs] for the bench JSON record.  Table runs
     compile fail-safe by default: a crashing or refuted pass degrades
     the affected variant instead of aborting the table, with the
     contained faults reported in [compiled.recovery]. *)
  let compiled =
    Core.Pipeline.compile ?options ?reuse ?pack ~certify:true ~fail_safe prog
  in
  let paper = paper_tbl paper in
  (* counters are device-independent: execute once per dataset *)
  let measured =
    List.map
      (fun ds ->
        let r_unopt =
          Exec.run ~mode:Exec.Cost_only ~pool ?pool_cap
            compiled.Core.Pipeline.unopt ds.args
        in
        let r_opt =
          Exec.run ~mode:Exec.Cost_only ~pool ?pool_cap
            compiled.Core.Pipeline.opt ds.args
        in
        let r_reuse =
          Exec.run ~mode:Exec.Cost_only ~pool ?pool_cap
            compiled.Core.Pipeline.reuse ds.args
        in
        let r_pack =
          Exec.run ~mode:Exec.Cost_only ~pool ?pool_cap
            compiled.Core.Pipeline.pack ds.args
        in
        let ref_c =
          match ds.ref_counters with
          | Static c -> c
          | From_opt f -> f r_opt.Exec.counters
        in
        (ds, ref_c, r_unopt, r_opt, r_reuse, r_pack))
      datasets
  in
  let rows =
    List.concat_map
      (fun device ->
        List.map
          (fun (ds, ref_c, r_unopt, r_opt, r_reuse, r_pack) ->
            Table.make_row ~device:device.Device.name ~dataset:ds.label
              ~ref_time:(Device.time device ref_c)
              ~unopt_time:(Device.time device r_unopt.Exec.counters)
              ~opt_time:(Device.time device r_opt.Exec.counters)
              ~reuse_time:(Device.time device r_reuse.Exec.counters)
              ~pack_time:(Device.time device r_pack.Exec.counters)
              ~paper:(Hashtbl.find_opt paper (device.Device.name, ds.label)))
          measured)
      devices
  in
  let footprints =
    List.map
      (fun (ds, _, r_unopt, r_opt, r_reuse, r_pack) ->
        (ds.label, footprint_of r_unopt, footprint_of r_opt,
         footprint_of r_reuse, footprint_of r_pack))
      measured
  in
  let traffic = Option.map (traffic_comparison compiled) trace_args in
  { table = { Table.title; runs; rows }; compiled; footprints; traffic }

(* Traced execution of both pipeline variants at a reduced size, each
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

let trace_check ?(compiled : Core.Pipeline.compiled option)
    (prog : Ir.Ast.prog) (args : Ir.Value.t list) : traced * traced =
  let compiled =
    match compiled with Some c -> c | None -> Core.Pipeline.compile prog
  in
  ( trace_variant ~variant:"unopt" compiled.Core.Pipeline.unopt args,
    trace_variant ~variant:"opt" compiled.Core.Pipeline.opt args )

(* All three pipeline variants traced and cross-checked. *)
let trace_check3 ?(compiled : Core.Pipeline.compiled option)
    (prog : Ir.Ast.prog) (args : Ir.Value.t list) : traced * traced * traced
    =
  let compiled =
    match compiled with Some c -> c | None -> Core.Pipeline.compile prog
  in
  ( trace_variant ~variant:"unopt" compiled.Core.Pipeline.unopt args,
    trace_variant ~variant:"opt" compiled.Core.Pipeline.opt args,
    trace_variant ~variant:"reuse" compiled.Core.Pipeline.reuse args )

(* All four pipeline variants (packing included) traced and
   cross-checked. *)
let trace_check4 ?(compiled : Core.Pipeline.compiled option)
    (prog : Ir.Ast.prog) (args : Ir.Value.t list) :
    traced * traced * traced * traced =
  let compiled =
    match compiled with Some c -> c | None -> Core.Pipeline.compile prog
  in
  ( trace_variant ~variant:"unopt" compiled.Core.Pipeline.unopt args,
    trace_variant ~variant:"opt" compiled.Core.Pipeline.opt args,
    trace_variant ~variant:"reuse" compiled.Core.Pipeline.reuse args,
    trace_variant ~variant:"pack" compiled.Core.Pipeline.pack args )

(* Full-mode validation at a reduced size: every variant must agree
   with the reference interpreter bit for bit ([Value.bit_equal], the
   invariant chaos enforces too). *)
type validation = {
  ok_unopt : bool;
  ok_opt : bool;
  ok_reuse : bool;
  ok_pack : bool;
  elided : int;
  copies_unopt : int;
  copies_opt : int;
  sc_succeeded : int;
}

let validate ?(compiled : Core.Pipeline.compiled option)
    (prog : Ir.Ast.prog) (args : Ir.Value.t list) : validation =
  let compiled =
    match compiled with Some c -> c | None -> Core.Pipeline.compile prog
  in
  let expect = Ir.Interp.run compiled.Core.Pipeline.source args in
  let r_unopt = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
  let r_opt = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.opt args in
  let r_reuse = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.reuse args in
  let r_pack = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.pack args in
  let ok (r : Exec.report) = List.for_all2 Value.bit_equal expect r.results in
  {
    ok_unopt = ok r_unopt;
    ok_opt = ok r_opt;
    ok_reuse = ok r_reuse;
    ok_pack = ok r_pack;
    elided = r_opt.Exec.counters.Device.copies_elided;
    copies_unopt = r_unopt.Exec.counters.Device.copies;
    copies_opt = r_opt.Exec.counters.Device.copies;
    sc_succeeded = compiled.Core.Pipeline.stats.Core.Shortcircuit.succeeded;
  }
