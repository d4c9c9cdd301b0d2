(** The CI gates over the suite's JSON records: the bench-trajectory
    gate over [BENCH.json] and the certificate gate over the combined
    [repro certify all --json] document.

    The gates read their documents with the one JSON reader,
    {!Core.Json}, re-exported here in full. *)

include module type of struct
  include Core.Json
end

(** {1 Gate results} *)

(** The outcome of a gate run: hard failures, informational notes, and
    the number of individual comparisons performed. *)
type gate = {
  regressions : string list;
      (** hard failures - the caller should exit nonzero *)
  notes : string list;
      (** informational: improvements and additions beyond the
          baseline, each a prompt to refresh it *)
  checked : int;  (** individual comparisons performed *)
}

val report : ?label:string -> gate -> string
(** Render a gate outcome as a line-oriented report: a [label]
    headline (default ["bench gate"]) with the comparison and failure
    counts, one [REGRESSION] line per failure, one [note] line per
    note. *)

val ok : gate -> bool
(** A gate passes iff it found no regression - notes never fail it. *)

(** {1 The bench-trajectory gate} *)

val default_tolerance : float
(** Relative tolerance on modeled times (0.05): times are simulated,
    so drift only comes from code changes, and the tolerance only
    absorbs intentional cost-model adjustments. *)

val gate : ?tolerance:float -> baseline:t -> current:t -> unit -> gate
(** Compare a freshly emitted [BENCH.json] ([current]) against the
    committed [bench/baseline.json] ([baseline]):

    - per (benchmark, device, dataset) row, each modeled time
      (unopt/opt/reuse/pack) may not exceed the baseline by more than
      [tolerance];
    - per (benchmark, dataset, variant) footprint, the allocation
      count, peak live bytes and modeled DRAM traffic must be
      monotone non-increasing - exact counters, so any increase is a
      regression by definition;
    - a capped pool's high-water mark must not exceed its cap
      (checked on the current record alone);
    - per benchmark, the packing pass's [pack_stats] must hold its
      ground: [arenas], [packed] and [holes] (certified lifetime
      holes) may only grow, [unpacked] (undecidable placements) may
      only shrink;
    - the prover's [nonneg_misses] and [sat_misses] (the [prover]
      object) may not exceed the baseline by more than [tolerance]:
      they count searches, and repeat exactly from run to run;
    - a benchmark present in the baseline must stay present.

    Improvements beyond tolerance, any fall in the prover's misses and
    new benchmarks are notes. *)

(** {1 The certificate gate} *)

val cert_gate : baseline:t -> current:t -> unit -> gate
(** Compare a freshly emitted combined certificate document ([repro
    certify all --json], the output of {!val:Core.Certify.check}
    serialized per pass) against the committed
    [bench/certs-baseline.json].  Certificates are exact, so there is
    no tolerance; per (benchmark, pass, obligation id):

    - a benchmark, pass, or obligation present in the baseline must
      stay present;
    - an obligation's verdict may not weaken (proved > concretized >
      failed);
    - a pass's [emitted] and [proved] counts may not decrease;
    - any failed obligation in the current run is a regression
      outright, baseline or not.

    Strengthened verdicts, new obligations, new passes and new
    benchmarks are notes - a prompt to refresh the baseline with
    [dune exec bin/repro.exe -- certify all --json >
    bench/certs-baseline.json]. *)
