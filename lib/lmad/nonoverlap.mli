(** Statically checking non-overlap of a pair of LMADs (section V-C).

    Implements the paper's Non-Overlap theorem: both LMADs are converted
    to sums of strided intervals over a matching stride basis by
    distributing the terms of the offset difference positively across
    dimensions (footnote 27); the sets are disjoint when both sums have
    pairwise non-overlapping dimensions and some dimension's intervals
    are provably disjoint.  Overlapping dimensions are handled by the
    splitting heuristic of Fig. 8 (last point peeled off and
    redistributed), recursively over the cross product of the splits.

    The test is {e sufficient}: [true] implies the point sets are
    disjoint under every assignment satisfying the prover context;
    [false] means "could not prove". *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type interval = { lo : P.t; hi : P.t; stride : P.t }
(** A strided interval [\[lo..hi\] * stride] with [lo >= 0] invariant. *)

type sum_of_intervals = interval list

val disjoint : ?depth:int -> Pr.t -> Lmad.t -> Lmad.t -> bool
(** [disjoint ctx l1 l2] - the sufficient non-overlap test.  [depth]
    bounds the Fig. 8 splitting recursion (default 3; 0 disables
    splitting, leaving the plain per-set condition).  The search is
    bounded by that depth and the prover's own depth, never by a
    clock, so the verdict is a function of the query alone unless the
    caller installs a {!Symalg.Prover.budget}.

    Verdicts are memoized ({!Symalg.Prover.Verdicts}) on the context,
    the depth and the {e ordered} pair [(l1, l2)], compared with
    {!Lmad.equal}: the test is not promised to be symmetric, so
    [disjoint ctx l2 l1] is a question of its own.  A repeated question
    is answered without a prover query.
    {!Symalg.Prover.with_cold_memo} empties the table, and any budget
    other than {!Symalg.Prover.unlimited} bypasses it. *)

(**/**)

(* Exposed for white-box tests. *)
val sort_strides : Pr.t -> P.t list -> P.t list option
val merge_bases : Pr.t -> P.t list -> P.t list -> P.t list option

type distribution =
  | Distributed of sum_of_intervals * sum_of_intervals
  | Residue_disjoint
  | Dist_fail

val distribute :
  Pr.t -> P.t -> sum_of_intervals -> sum_of_intervals -> distribution

val first_overlapping_dim : Pr.t -> sum_of_intervals -> int option
val dims_nonoverlapping : Pr.t -> sum_of_intervals -> bool
val is_empty : Pr.t -> sum_of_intervals -> bool
val split_overlapping : Pr.t -> sum_of_intervals -> sum_of_intervals list option
