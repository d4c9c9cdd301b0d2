(** Memory-reference summaries as unions of LMADs (section V-B).

    These are the [U_xss] and [W_bs] summaries of the short-circuiting
    analysis: the uses of the destination's memory, and the writes
    through the rebased candidate.  The analysis only ever needs union,
    loop aggregation, and pairwise disjointness - no intersection or
    subtraction, which the paper notes keeps it much simpler than full
    parallelism analysis.  [Top] conservatively denotes "all of memory"
    (footnote 26). *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type t = Top | Union of Lmad.t list

val empty : t
val top : t
val of_lmad : Lmad.t -> t

val is_empty : Pr.t -> t -> bool
(** Provably denotes no locations ([Top] never does). *)

val union : t -> t -> t
val unions : t list -> t

val disjoint : ?depth:int -> Pr.t -> t -> t -> bool
(** Pairwise sufficient disjointness via {!Nonoverlap.disjoint};
    [depth] is forwarded to the splitting recursion. *)

val expand_loop : Pr.t -> string -> count:P.t -> t -> t
(** Aggregate over a loop index by dimension promotion; any LMAD whose
    expansion fails overestimates the whole summary to [Top]. *)

val subst : string -> P.t -> t -> t
val subst_map : P.t P.SM.t -> t -> t

val concretize : (string -> int) -> t -> Lmad.concrete list option
(** Evaluate the summary under a concrete assignment: the finite union
    of {!Lmad.concrete} point sets it denotes, or [None] for [Top]
    (all of memory has no finite enumeration).  Used by the execution
    tracer to turn static footprints into checkable offset sets. *)

val vars : t -> string list
(** Free variables (empty for [Top]). *)

val pp : Format.formatter -> t -> unit
