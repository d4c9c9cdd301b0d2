(** The gates over the suite's JSON records: the bench-trajectory
    gate over [BENCH.json] and the certificate gate over the combined
    [repro certify all --json] document.

    Both gates run one comparison engine over a committed baseline and
    a freshly emitted document, and differ only in the rule list that
    describes their document:

    - entries pair by key at every list level; a baseline entry the
      current document lacks is a regression, a current entry the
      baseline lacks is a note;
    - a gated value is judged by its rule when both documents hold it,
      is a regression when only the baseline holds it, and is skipped
      when the baseline lacks it;
    - four rules judge a value: within the relative tolerance (5%),
      never up, never down, and verdict rank (proved > concretized >
      failed).  A move its rule forbids is a regression; any other move
      beyond the tolerance is a note, a prompt to refresh the baseline;
    - counting: each gated value of a paired entry is one comparison,
      judged or found missing; an unpaired entry is one regression or
      one note and counts nothing.

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

val gate : baseline:t -> current:t -> gate
(** Compare a freshly emitted [BENCH.json] ([current]) against the
    committed [bench/baseline.json] ([baseline]).  Benchmarks pair by
    [name]; within one, rows pair by [device] and [dataset], footprints
    by [dataset] and then by variant.  Its rule list:

    - within the tolerance: each row's modeled time per variant
      ([unopt_ms] ... [pack_ms]), and the [prover] object's
      [nonneg_misses], [sat_misses] and [verdict_misses] - times are
      simulated and misses count searches, so both repeat exactly from
      run to run and the tolerance only absorbs intentional changes;
    - never up: each variant footprint's [allocs], [peak_bytes] and
      [traffic_bytes] (exact counters), and the packing pass's
      [pack_stats.unpacked] (undecidable placements);
    - never down: [pack_stats.arenas], [packed] and [holes] (certified
      lifetime holes) - the planner must not lose coverage. *)

(** {1 The certificate gate} *)

val cert_gate : baseline:t -> current:t -> gate
(** Compare a freshly emitted combined certificate document ([repro
    certify all --json], the output of {!val:Core.Certify.check}
    serialized per pass) against the committed
    [bench/certs-baseline.json].  Benchmarks pair by [name], passes by
    [pass] and obligations by [id].  Certificates are exact, so no rule
    here has a tolerance:

    - never down: each pass's [emitted] and [proved] counts;
    - verdict rank: an obligation's [verdict] may not weaken;
    - a [failed] obligation in the current document is a regression
      whatever the baseline holds.

    Refresh the baseline with [dune exec bin/repro.exe -- certify all
    --json > bench/certs-baseline.json]. *)
