(* Golden record of the executor's counters: every paper program's four
   variants, cost-only on every paper-scale dataset and Full-mode at the
   small arguments [repro validate] uses.  Each run prints every
   [Device.counters] field (floats in hexadecimal, so any change in any
   bit shows), the pool statistics and the contained faults.  Two more
   records per program pin what the counters alone do not: each
   variant's traced Full-mode run (its event count and the MD5 of its
   JSON export), and the pack variant's fault paths - unpooled, with
   the first allocation refused, and under a strict pool cap at half
   the pooled run's high water - in both modes.  Dune diffs the output
   against [exec_counters.expected]; an executor change that is meant
   to keep every modeled number, trace event and fault must leave that
   file byte-identical. *)

module B = Benchsuite
module Device = Gpu.Device
module Exec = Gpu.Exec

(* The full record pattern (no [_]) makes a new counter field a compile
   error here until it is printed too. *)
let print_counters
    {
      Device.kernels;
      kernel_reads;
      kernel_writes;
      flops;
      copies;
      copy_bytes;
      copies_elided;
      elided_bytes;
      allocs;
      alloc_bytes;
      arena_allocs;
      arena_bytes;
      scratch_allocs;
      scratch_bytes;
      pool_hits;
      pool_misses;
      frees;
      peak_bytes;
      live_bytes;
    } =
  Printf.printf
    "  kernels %d reads %h writes %h flops %h\n\
    \  copies %d %h elided %d %h\n\
    \  allocs %d %h arenas %d %h scratch %d %h\n\
    \  pool %d/%d frees %d peak %h live %h\n"
    kernels kernel_reads kernel_writes flops copies copy_bytes copies_elided
    elided_bytes allocs alloc_bytes arena_allocs arena_bytes scratch_allocs
    scratch_bytes pool_hits pool_misses frees peak_bytes live_bytes

let print_pool = function
  | None -> print_string "  no pool"
  | Some { Device.Pool.p_device_bytes; p_high_water; p_fragmentation } ->
      Printf.printf "  device %h high %h frag %h" p_device_bytes p_high_water
        p_fragmentation

let run ?pool ?pool_cap ?oom_at label mode prog args =
  let r = Exec.run ?pool ?pool_cap ?oom_at ~mode prog args in
  print_endline label;
  print_counters r.Exec.counters;
  print_pool r.Exec.pool;
  Printf.printf " faults %d\n" (List.length r.Exec.faults);
  List.iter
    (fun f -> Printf.printf "  fault %s\n" (Core.Fault.to_string f))
    r.Exec.faults

let trace label prog args =
  let r = Exec.run ~mode:Exec.Full ~trace:true ~variant:label prog args in
  match r.Exec.trace with
  | None -> Printf.printf "%s trace: none\n" label
  | Some t ->
      Printf.printf "%s trace: %d events, json md5 %s\n" label
        (List.length (Core.Trace.events t))
        (Digest.to_hex
           (Digest.string (Core.Json.to_string (Core.Trace.to_json t))))

(* The pack variant without a pool, with its first allocation refused,
   and under a pool cap at half the pooled run's high water, strict in
   that it refuses live memory. *)
let faults label mode prog args =
  run (label ^ " unpooled") mode prog args ~pool:false;
  run (label ^ " oom at 1") mode prog args ~oom_at:1;
  match (Exec.run ~mode prog args).Exec.pool with
  | Some { Device.Pool.p_high_water = high; _ } when high > 0. ->
      let cap = int_of_float (high /. 2.) in
      run
        (Printf.sprintf "%s strict cap %d" label cap)
        mode prog args ~pool_cap:cap
  | _ -> Printf.printf "%s strict cap: no pooled high water\n" label

let () =
  List.iter
    (fun { B.Runner.name; prog; datasets; small_args; _ } ->
      let datasets = datasets () and small = small_args () in
      let c = Core.Pipeline.compile prog in
      List.iter
        (fun (v, p) ->
          List.iter
            (fun (ds : B.Runner.dataset) ->
              run
                (Printf.sprintf "%s %s cost %s" name v ds.label)
                Exec.Cost_only p ds.args)
            datasets;
          run (Printf.sprintf "%s %s full small" name v) Exec.Full p small;
          trace (Printf.sprintf "%s %s" name v) p small)
        (Core.Pipeline.variants c);
      let pack = List.assoc "pack" (Core.Pipeline.variants c) in
      List.iter
        (fun (ds : B.Runner.dataset) ->
          faults
            (Printf.sprintf "%s pack cost %s" name ds.label)
            Exec.Cost_only pack ds.args)
        datasets;
      faults (Printf.sprintf "%s pack full small" name) Exec.Full pack small)
    B.Suite.all
