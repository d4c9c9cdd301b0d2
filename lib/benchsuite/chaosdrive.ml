(* The seeded fault-injection campaign behind [repro chaos].

   Each round draws injection sites from a seeded PRNG and subjects
   every benchmark to the five fault classes of the taxonomy
   (Core.Fault): prover-budget exhaustion, a pass exception at
   statement k, a forged certificate, a device OOM at allocation k,
   and strict pool-cap pressure.  Every injection then executes the
   surviving pack variant in Full mode and compares the results
   bit-for-bit against the reference interpreter - the fail-safe
   ladder may degrade the program, but it must never change what it
   computes. *)

module Pipeline = Core.Pipeline
module Chaos = Core.Chaos
module Fault = Core.Fault
module Exec = Gpu.Exec
module Device = Gpu.Device
module Prover = Symalg.Prover

type injection = {
  i_class : string;
  i_pass : string;
  i_site : int;
  i_fired : bool;
  i_recovered : bool;
  i_fallback : string;
  i_bit_equal : bool;
  i_crashed : bool;
  i_detail : string;
}

let inj_ok i =
  (not i.i_crashed) && i.i_bit_equal && ((not i.i_fired) || i.i_recovered)

type bench_campaign = { c_bench : string; c_injections : injection list }
type campaign = { seed : int; rounds : int; benches : bench_campaign list }

let bit_equal got expect =
  try List.for_all2 Ir.Value.bit_equal got expect
  with Invalid_argument _ -> false

(* The passes that carry chaos probes and certificates. *)
let passes = [ "shortcircuit"; "reuse"; "pack" ]

let find_recovery cls pass (c : Pipeline.compiled) =
  List.find_opt
    (fun (r : Pipeline.recovery) ->
      Fault.layer r.Pipeline.r_fault = cls
      && (pass = "" || r.Pipeline.r_pass = pass))
    c.Pipeline.recovery

(* Fail-safe compile (resumed when [from] is given) + Full-mode
   execution of the pack variant (the most degraded rung still
   standing), checked against the reference results. *)
let compile_and_check ?(certify = false) ?from prog args expect =
  let c = Pipeline.compile ~certify ~fail_safe:true ?from prog in
  let r = Exec.run ~mode:Exec.Full c.Pipeline.pack args in
  (c, bit_equal r.Exec.results expect)

(* Invariant 1 (no crash) is checked here: any exception escaping an
   injection run is itself the violation, recorded rather than
   propagated so the campaign always completes. *)
let guarded ~cls ~pass ~site f =
  match f () with
  | i -> i
  | exception e ->
      {
        i_class = cls;
        i_pass = pass;
        i_site = site;
        i_fired = true;
        i_recovered = false;
        i_fallback = "";
        i_bit_equal = false;
        i_crashed = true;
        i_detail = Printexc.to_string e;
      }

let inject_budget ~steps prog args expect =
  guarded ~cls:"prover-budget" ~pass:"prover" ~site:steps (fun () ->
      let saved = Prover.get_budget () in
      Fun.protect
        ~finally:(fun () -> Prover.set_budget saved)
        (fun () ->
          Prover.set_budget { Prover.unlimited with Prover.b_steps = steps };
          (* from a cold memo, so whether the budget cuts a query does
             not depend on what the campaign proved before *)
          let c, eq =
            Prover.with_cold_memo (fun () ->
                compile_and_check prog args expect)
          in
          let fired = c.Pipeline.prover_exhausted > 0 in
          let rcv = find_recovery "prover-budget" "" c in
          {
            i_class = "prover-budget";
            i_pass = "prover";
            i_site = steps;
            i_fired = fired;
            i_recovered = (not fired) || rcv <> None;
            i_fallback =
              (match rcv with
              | Some r -> r.Pipeline.r_fallback
              | None -> "");
            i_bit_equal = eq;
            i_crashed = false;
            i_detail =
              Printf.sprintf "b_steps=%d exhausted=%d" steps
                c.Pipeline.prover_exhausted;
          }))

let inject_crash rng ?from pass count prog args expect =
  (* The site is drawn within the probe count observed on the clean
     compile, so the injection always fires when the pass visits any
     statements at all. *)
  let site = 1 + Random.State.int rng (max 1 count) in
  guarded ~cls:"pass-crash" ~pass ~site (fun () ->
      Chaos.arm_crash ~pass ~at:site;
      Fun.protect ~finally:Chaos.disarm (fun () ->
          let c, eq = compile_and_check ?from prog args expect in
          let fired = site <= count in
          let rcv = find_recovery "pass-crash" pass c in
          {
            i_class = "pass-crash";
            i_pass = pass;
            i_site = site;
            i_fired = fired;
            i_recovered = (not fired) || rcv <> None;
            i_fallback =
              (match rcv with
              | Some r -> r.Pipeline.r_fallback
              | None -> "");
            i_bit_equal = eq;
            i_crashed = false;
            i_detail = Printf.sprintf "statement %d of %d" site count;
          }))

let inject_forge ?from pass prog args expect =
  guarded ~cls:"cert-refuted" ~pass ~site:0 (fun () ->
      Chaos.arm_forge ~pass;
      Fun.protect ~finally:Chaos.disarm (fun () ->
          let c, eq = compile_and_check ~certify:true ?from prog args expect in
          let rcv = find_recovery "cert-refuted" pass c in
          {
            i_class = "cert-refuted";
            i_pass = pass;
            i_site = 0;
            (* the forged obligation is always appended and always
               refutable, so the fault must always fire *)
            i_fired = true;
            i_recovered = rcv <> None;
            i_fallback =
              (match rcv with
              | Some r -> r.Pipeline.r_fallback
              | None -> "");
            i_bit_equal = eq;
            i_crashed = false;
            i_detail = "forged Size_ge 1 >= 2";
          }))

(* Executor-side injections run the clean compile's pack variant; a
   contained device fault lands in [report.faults] and execution
   degrades to unpooled ("unpooled" is the fallback rung). *)
let exec_fault_injection ~cls ~pass ~site ~detail run_f expect =
  guarded ~cls ~pass ~site (fun () ->
      let r : Exec.report = run_f () in
      let faults =
        List.filter (fun f -> Fault.layer f = cls) r.Exec.faults
      in
      let fired = faults <> [] in
      {
        i_class = cls;
        i_pass = pass;
        i_site = site;
        i_fired = fired;
        (* containment = the run named the fault *and* actually
           degraded: the pool must be gone from the report *)
        i_recovered = (not fired) || r.Exec.pool = None;
        i_fallback = (if fired then "unpooled" else "");
        i_bit_equal = bit_equal r.Exec.results expect;
        i_crashed = false;
        i_detail =
          (match faults with
          | f :: _ -> Fault.to_string f
          | [] -> detail ^ " (did not fire)");
      })

let inject_oom rng total target args expect =
  let site = 1 + Random.State.int rng (max 1 total) in
  exec_fault_injection ~cls:"device-oom" ~pass:"device" ~site
    ~detail:(Printf.sprintf "oom at alloc %d of %d" site total)
    (fun () -> Exec.run ~mode:Exec.Full ~oom_at:site target args)
    expect

let inject_cap rng high_water target args expect =
  let frac = 10 + Random.State.int rng 80 in
  let cap = max 8 (int_of_float (high_water *. float_of_int frac /. 100.)) in
  exec_fault_injection ~cls:"pool-cap" ~pass:"pool" ~site:cap
    ~detail:(Printf.sprintf "cap %d bytes (%d%% of high water)" cap frac)
    (fun () ->
      Exec.run ~mode:Exec.Full ~pool_cap:cap ~strict_cap:true target args)
    expect

let run_bench rng ~rounds name prog args =
  let expect = Ir.Interp.run prog args in
  (* Learn each pass's probe count on a clean fail-safe compile so the
     crash sites drawn below always land inside the pass.  It is
     certified so the forge injections can resume from it too. *)
  let clean, counts =
    Chaos.arm_count ();
    Fun.protect ~finally:Chaos.disarm (fun () ->
        let c = Pipeline.compile ~certify:true ~fail_safe:true prog in
        (c, List.map (fun p -> (p, Chaos.counted p)) passes))
  in
  (* A pass-crash or cert-refuted injection reaches only its own pass,
     so it resumes from the clean compile's rungs below that pass -
     unless the clean compile itself degraded and cannot be split by
     rung.  The prover budget reaches every pass: that injection
     compiles from scratch. *)
  let from pass =
    if clean.Pipeline.recovery = [] && clean.Pipeline.prover_exhausted = 0
    then Some (clean, pass)
    else None
  in
  (* Executor-side injections need a variant that still allocates: the
     fully optimized one can be allocation-free (nw's pack variant
     eliminates every device allocation), so fall down the ladder to
     the most optimized variant with the allocations the injection
     targets.  OOM counts any allocation (scratch included); the
     pool-cap needs pooled, i.e. top-level, allocations. *)
  let variants =
    List.map
      (fun p ->
        let r = Exec.run ~mode:Exec.Full p args in
        let total =
          r.Exec.counters.Device.allocs
          + r.Exec.counters.Device.scratch_allocs
        in
        let hw =
          match r.Exec.pool with
          | Some s -> s.Device.Pool.p_high_water
          | None -> 0.
        in
        (p, total, r.Exec.counters.Device.allocs, hw))
      (List.rev_map snd (Pipeline.variants clean))
  in
  let pick want fallback =
    match List.find_opt want variants with
    | Some (p, total, allocs, hw) -> (p, total, allocs, hw)
    | None -> fallback
  in
  let oom_target, total_allocs, _, _ =
    pick (fun (_, total, _, _) -> total > 0) (clean.Pipeline.unopt, 0, 0, 0.)
  in
  let cap_target, _, _, high_water =
    pick
      (fun (_, _, allocs, hw) -> allocs > 0 && hw > 0.)
      (clean.Pipeline.unopt, 0, 0, 0.)
  in
  (* Explicit sequencing: the PRNG draws must happen in a fixed order
     for the campaign to be reproducible from its seed. *)
  let injections = ref [] in
  let push i = injections := i :: !injections in
  for round = 1 to rounds do
    (* round 1 pins the budget to 0 so exhaustion is guaranteed to
       fire on every benchmark; later rounds draw from the ladder *)
    let steps =
      if round = 1 then 0 else [| 0; 1; 4; 16 |].(Random.State.int rng 4)
    in
    push (inject_budget ~steps prog args expect);
    List.iter
      (fun (p, count) ->
        push (inject_crash rng ?from:(from p) p count prog args expect))
      counts;
    List.iter
      (fun p -> push (inject_forge ?from:(from p) p prog args expect))
      passes;
    push (inject_oom rng total_allocs oom_target args expect);
    push (inject_cap rng high_water cap_target args expect)
  done;
  { c_bench = name; c_injections = List.rev !injections }

let run ~seed ~rounds targets =
  let rng = Random.State.make [| seed |] in
  let benches =
    List.map
      (fun (name, prog, args) -> run_bench rng ~rounds name prog args)
      targets
  in
  { seed; rounds; benches }

let violations c =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun i -> if inj_ok i then None else Some (b.c_bench, i))
        b.c_injections)
    c.benches

let ok c = violations c = []

(* The one (bench, class) pair the campaign cannot cover: even at a
   budget of 0, NN's fail-safe compile exhausts no query, since none of
   its decisions goes through a budgeted prover query. *)
let not_covered =
  [
    ( "nn",
      "prover-budget",
      "NN's fail-safe compile asks no question a step budget can cut" );
  ]

(* An injection that fired exercised its layer; one that did not
   checked nothing.  A step budget above 0 may exceed what the compile
   needs, so only a budget of 0 is required to fire. *)
let unfired c =
  let excused bench i =
    (i.i_class = "prover-budget" && i.i_site > 0)
    || List.exists
         (fun (b, cls, _) -> b = bench && cls = i.i_class)
         not_covered
  in
  List.concat_map
    (fun b ->
      List.filter_map
        (fun i ->
          if i.i_fired || excused b.c_bench i then None else Some (b.c_bench, i))
        b.c_injections)
    c.benches

let json c =
  let open Core.Json in
  let injection i =
    Obj
      [
        ("class", Str i.i_class);
        ("pass", Str i.i_pass);
        ("site", int i.i_site);
        ("fired", Bool i.i_fired);
        ("recovered", Bool i.i_recovered);
        ("fallback", Str i.i_fallback);
        ("bit_equal", Bool i.i_bit_equal);
        ("crashed", Bool i.i_crashed);
        ("ok", Bool (inj_ok i));
        ("detail", Str i.i_detail);
      ]
  in
  Obj
    [
      ("seed", int c.seed);
      ("rounds", int c.rounds);
      ( "injections",
        int
          (List.fold_left
             (fun n b -> n + List.length b.c_injections)
             0 c.benches) );
      ("violations", int (List.length (violations c)));
      ( "benches",
        Arr
          (List.map
             (fun b ->
               Obj
                 [
                   ("name", Str b.c_bench);
                   ("injections", Arr (List.map injection b.c_injections));
                 ])
             c.benches) );
    ]

let report c =
  let b = Buffer.create 512 in
  let total = ref 0 in
  List.iter
    (fun bc ->
      let n = List.length bc.c_injections in
      total := !total + n;
      let bad = List.filter (fun i -> not (inj_ok i)) bc.c_injections in
      Buffer.add_string b
        (Printf.sprintf "  %-15s %3d injections, %3d ok\n" bc.c_bench n
           (n - List.length bad)))
    c.benches;
  let viols = violations c in
  List.iter
    (fun (bench, i) ->
      Buffer.add_string b
        (Printf.sprintf
           "  VIOLATION %s %s/%s@%d: %s%s%s (detail: %s)\n" bench i.i_class
           i.i_pass i.i_site
           (if i.i_crashed then "crashed" else "")
           (if not i.i_bit_equal then " results-diverged" else "")
           (if i.i_fired && not i.i_recovered then " unrecovered" else "")
           i.i_detail))
    viols;
  List.iter
    (fun (bench, i) ->
      Buffer.add_string b
        (Printf.sprintf "  UNFIRED %s %s/%s@%d (detail: %s)\n" bench i.i_class
           i.i_pass i.i_site i.i_detail))
    (unfired c);
  List.iter
    (fun (bench, cls, why) ->
      if List.exists (fun bc -> bc.c_bench = bench) c.benches then
        Buffer.add_string b
          (Printf.sprintf "  not covered: %s %s (%s)\n" bench cls why))
    not_covered;
  Printf.sprintf
    "chaos campaign: seed %d, %d round(s), %d bench(es), %d injections, \
     %d violation(s)\n%s"
    c.seed c.rounds
    (List.length c.benches)
    !total (List.length viols) (Buffer.contents b)
