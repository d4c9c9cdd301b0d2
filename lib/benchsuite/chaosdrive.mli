(** The seeded chaos campaign behind [repro chaos].

    For every target benchmark the campaign injects each of the five
    fault classes - prover exhaustion (a step budget), a pass
    exception at statement k, a forged certificate, a device OOM at
    allocation k, and a pool cap that refuses live memory - and
    asserts the three fail-safe invariants of docs/ROBUSTNESS.md:

    + no injection crashes the compile or the run;
    + the final results stay bit-equal to the unoptimized reference
      interpreter;
    + every degraded run names its fault and its fallback variant in
      the recovery report.

    Sites are drawn from a seeded PRNG ([--seed]), so a campaign is
    reproducible; [--rounds] repeats the draws for wider coverage. *)

(** One injection and what happened to it. *)
type injection = {
  i_class : string;
      (** fault class injected ({!Core.Fault.layer} tag) *)
  i_pass : string;  (** targeted pass or layer *)
  i_site : int;
      (** injection site: statement / allocation ordinal, budget
          steps, or cap bytes - interpreted per class *)
  i_fired : bool;  (** did the injection actually trigger a fault? *)
  i_recovered : bool;
      (** vacuously true when it did not fire; otherwise: was the
          fault contained {e and} blamed on the injected layer? *)
  i_fallback : string;  (** fallback variant recorded; [""] if none *)
  i_bit_equal : bool;
      (** results bit-equal to the reference interpreter *)
  i_crashed : bool;  (** an exception escaped containment *)
  i_detail : string;  (** human-readable context *)
}

val inj_ok : injection -> bool
(** The three invariants for one injection: no crash, bit-equal
    results, and fired implies recovered-with-blame. *)

type bench_campaign = { c_bench : string; c_injections : injection list }

type campaign = {
  seed : int;
  rounds : int;
  benches : bench_campaign list;
}

val run :
  seed:int ->
  rounds:int ->
  (string * Ir.Ast.prog * Ir.Value.t list) list ->
  campaign
(** [run ~seed ~rounds targets] drives the campaign over
    [(name, program, small_args)] targets.  Small (validation-size)
    arguments are required: every injection executes the compiled
    program in Full mode to check bit-equality. *)

val violations : campaign -> (string * injection) list
(** Injections violating an invariant, paired with their benchmark. *)

val ok : campaign -> bool

val not_covered : (string * string * string) list
(** The (bench, fault class) pairs the campaign cannot cover, each with
    its reason: [("nn", "prover-budget", _)], as NN's fail-safe compile
    asks no question a step budget can cut. *)

val unfired : campaign -> (string * injection) list
(** Injections that did not fire, paired with their benchmark: each
    checked nothing.  Excused are prover-budget injections with a step
    budget above 0 (it may exceed what the compile needs) and the
    {!not_covered} pairs.  [repro chaos] fails when any remain. *)

val json : campaign -> Core.Json.t
(** The campaign summary schema consumed by CI (see
    docs/ROBUSTNESS.md): seed, rounds, per-bench injection records,
    and the violation count. *)

val report : campaign -> string
(** Human-readable summary, one line per benchmark plus one line per
    violation, one per {!unfired} injection and one per {!not_covered}
    pair of a benchmark in the campaign. *)
