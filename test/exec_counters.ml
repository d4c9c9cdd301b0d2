(* Golden record of the executor's counters: every paper program's four
   variants, cost-only on every paper-scale dataset and Full-mode at the
   small arguments [repro validate] uses.  Each run prints every
   [Device.counters] field (floats in hexadecimal, so any change in any
   bit shows), the pool statistics and the number of contained faults.
   Dune diffs the output against [exec_counters.expected]; an executor
   change that is meant to keep every modeled number must leave that
   file byte-identical. *)

module B = Benchsuite
module Device = Gpu.Device
module Exec = Gpu.Exec

let programs =
  [
    ("nw", B.Nw.prog, B.Nw.datasets (), B.Nw.small_args ~q:3 ~b:4);
    ("lud", B.Lud.prog, B.Lud.datasets (), B.Lud.small_args ~q:3 ~b:4);
    ( "hotspot",
      B.Hotspot.prog,
      B.Hotspot.datasets (),
      B.Hotspot.small_args ~n:16 ~steps:3 );
    ("lbm", B.Lbm.prog, B.Lbm.datasets (), B.Lbm.small_args ~n:8 ~steps:3);
    ( "optionpricing",
      B.Option_pricing.prog,
      B.Option_pricing.datasets (),
      B.Option_pricing.small_args ~npaths:64 ~nsteps:16 );
    ( "locvolcalib",
      B.Locvolcalib.prog,
      B.Locvolcalib.datasets (),
      B.Locvolcalib.small_args ~numo:6 ~numx:12 ~numt:4 );
    ( "nn",
      B.Nn.prog,
      B.Nn.datasets (),
      B.Nn.small_args ~nrec:100 ~nbatch:4 ~bsz:8 );
  ]

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
  | Some
      {
        Device.Pool.p_device_bytes;
        p_high_water;
        p_fragmentation;
        p_cap;
        p_evictions;
      } ->
      Printf.printf "  device %h high %h frag %h cap %s evictions %d"
        p_device_bytes p_high_water p_fragmentation
        (match p_cap with Some c -> Printf.sprintf "%h" c | None -> "-")
        p_evictions

let run label mode prog args =
  let r = Exec.run ~mode prog args in
  print_endline label;
  print_counters r.Exec.counters;
  print_pool r.Exec.pool;
  Printf.printf " faults %d\n" (List.length r.Exec.faults)

let () =
  List.iter
    (fun (name, prog, datasets, small) ->
      let c = Core.Pipeline.compile prog in
      List.iter
        (fun (v, p) ->
          List.iter
            (fun (ds : B.Runner.dataset) ->
              run
                (Printf.sprintf "%s %s cost %s" name v ds.label)
                Exec.Cost_only p ds.args)
            datasets;
          run (Printf.sprintf "%s %s full small" name v) Exec.Full p small)
        (Core.Pipeline.variants c))
    programs
