(** Index functions: the map from array indices to flat memory offsets
    (section IV-A/IV-B).

    An index function is a nonempty chain of LMADs, head = index-space
    side.  Application follows Fig. 3: apply the head, unrank the result
    (row-major) with respect to the next LMAD's cardinals, apply it, and
    so on.  Most arrays have single-LMAD index functions; extra links
    appear only for reshapes a single LMAD cannot express (e.g.
    flattening a column-major matrix) and cost a division per link at
    run time. *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type t

val of_lmad : Lmad.t -> t

val of_chain : Lmad.t list -> t
(** Head first.  @raise Invalid_argument on the empty list. *)

val chain : t -> Lmad.t list
val head : t -> Lmad.t
val is_single : t -> bool

val row_major : ?off:P.t -> P.t list -> t
val col_major : ?off:P.t -> P.t list -> t
val rank : t -> int
val shape : t -> P.t list

(** {1 Change-of-layout operations (act on the head)} *)

val permute : int list -> t -> t
val transpose : t -> t
val reverse : int -> t -> t
val slice : Lmad.slice_dim list -> t -> t

val lmad_slice : Pr.t -> slc:Lmad.t -> t -> t option
(** Generalized slice over the flat view of the array; requires the head
    to flatten (always true for fresh row-major arrays). *)

val reshape : Pr.t -> P.t list -> t -> t
(** Reshape to the given shape, on the head LMAD when its layout
    permits, otherwise by prepending a fresh row-major link (Fig. 3's
    multi-LMAD case). *)

(** {1 Application} *)

val apply_sym : t -> P.t list -> P.t option
(** Symbolic application; defined only for single-LMAD chains. *)

val apply_int : (string -> int) -> t -> int list -> int
(** Concrete application with unranking across the chain. *)

val unrank : int -> int list -> int list
(** Row-major unranking of a flat offset w.r.t. a concrete shape. *)

(** {1 Queries and substitution} *)

val equal : t -> t -> bool
val is_direct : Pr.t -> t -> bool
val map_polys : (P.t -> P.t) -> t -> t
val subst : string -> P.t -> t -> t
val subst_map : P.t P.SM.t -> t -> t
val subst_fixpoint : P.t P.SM.t -> t -> t
val vars : t -> string list
val card : t -> P.t

val accessed_set : t -> Lmad.t option
(** The abstract set of offsets this index function can address: its
    LMAD when single, [None] for chains (overestimated to Top by
    clients, footnote 26). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
