(** Linear Memory Access Descriptors (paper, eq. (1)).

    An LMAD [t + {(n1 : s1), ..., (nq : sq)}] denotes the set of flat
    offsets [{ t + i1*s1 + ... + iq*sq | 0 <= ik < nk }].  It serves two
    roles (section III): as an {e index function} mapping a
    q-dimensional index to an offset in a memory block - supporting O(1)
    change-of-layout operations - and as an {e abstract set} of memory
    references, the building block of the short-circuiting analysis.
    All components are symbolic polynomials ({!Symalg.Poly}). *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type dim = { n : P.t;  (** cardinal: number of points *)
             s : P.t   (** stride between consecutive points *) }

type t = { off : P.t; dims : dim list }

(** {1 Construction and access} *)

val make : P.t -> dim list -> t
val dim : P.t -> P.t -> dim
(** [dim n s] is the dimension [(n : s)]. *)

val rank : t -> int
val shape : t -> P.t list
(** Cardinals of the dimensions, outermost first. *)

val offset : t -> P.t
val dims : t -> dim list

val row_major : ?off:P.t -> P.t list -> t
(** The paper's [R(d1,...,dq)]: strides are suffix products. *)

val col_major : ?off:P.t -> P.t list -> t
(** The paper's [C(d1,...,dq)]: strides are prefix products. *)

val iota : P.t -> t
(** Rank-1 identity layout [0 + {(n : 1)}]. *)

val point : P.t -> t
(** The singleton set / rank-0 index function at the given offset. *)

(** {1 Application} *)

val apply : t -> P.t list -> P.t
(** Symbolic application: [apply l \[i1;...;iq\] = off + sum ik*sk].
    @raise Invalid_argument on rank mismatch. *)

val apply_int : (string -> int) -> t -> int list -> int
(** Concrete application under an integer environment. *)

(** {1 Change-of-layout transformations (section IV-B)} *)

val permute : int list -> t -> t
(** Permute dimensions; [permute perm l] puts old dimension [perm.(i)]
    at position [i].  @raise Invalid_argument if not a permutation. *)

val transpose : t -> t
(** [permute \[1;0\]] for rank 2.  @raise Invalid_argument otherwise. *)

val reverse : int -> t -> t
(** Read dimension [k] backwards: negative stride, shifted offset
    (footnote 13: not normalizable away for index functions). *)

type slice_dim =
  | Fix of P.t  (** fix the index; the dimension disappears *)
  | Range of { start : P.t; len : P.t; step : P.t }

val slice : slice_dim list -> t -> t
(** Triplet slicing, one component per dimension. *)

val lmad_slice : slc:t -> t -> t
(** Generalized LMAD slicing (section III-B): [slc] selects indices of
    the flat index space of a rank-1 [base]; the result takes [slc]'s
    dimension structure.  @raise Invalid_argument if the base is not
    rank 1 (flatten it first, cf. {!Ixfn.lmad_slice}). *)

val flatten_all : Pr.t -> t -> t option
(** Flatten to rank 1, if every adjacent pair merges. *)

val unflatten_dim : int -> outer:P.t -> inner:P.t -> t -> t
(** Split dimension [k] of cardinal [outer*inner] into two. *)

val is_direct : Pr.t -> t -> bool
(** Is this the zero-offset row-major layout for its shape? *)

(** {1 Abstract-set operations (section V-B/V-C)} *)

val normalize_set : Pr.t -> t -> t option
(** Flip provably-negative strides (valid for the set view only);
    [None] when some stride's sign is undecidable. *)

val is_empty_set : Pr.t -> t -> bool
(** Some cardinal is provably [<= 0]. *)

val expand_loop : Pr.t -> string -> count:P.t -> t -> t option
(** Aggregate over [for v = 0..count-1] (section II-B): promote the
    offset's linear-in-[v] term to a new dimension.  A cardinal
    mentioning [v] is overestimated per footnote 8 (substituting the
    maximizing bound); [v] in a stride defeats aggregation. *)

val card : t -> P.t
(** Number of points (product of cardinals). *)

val bounds : Pr.t -> t -> (P.t * P.t) option
(** Inclusive symbolic [(min, max)] offset extrema of the point set:
    [Some] only when every cardinal is provably [>= 1] and every
    stride's sign is provable, so a demonstrated violation of the
    returned bounds is a real out-of-bounds access.  The footprint
    obligation of the memory linter checks these against [\[0, size)]
    with {!Symalg.Prover.check_in_range}. *)

(** {1 Substitution, comparison, enumeration} *)

val map_polys : (P.t -> P.t) -> t -> t
val subst : string -> P.t -> t -> t
val subst_map : P.t P.SM.t -> t -> t
val subst_fixpoint : P.t P.SM.t -> t -> t
val rename : (string -> string) -> t -> t
val vars : t -> string list
val equal : t -> t -> bool
(** Component-wise polynomial (normal-form) equality. *)

(** {1 Concretization}

    An LMAD whose polynomials have been evaluated under a concrete
    assignment of the free variables: a plain integer offset plus
    (cardinal, stride) pairs.  This is the currency of the execution
    tracer ({!Core.Trace}): the executor concretizes the static
    annotations at kernel launch, and the {!Core.Memtrace}
    cross-checker later re-enumerates the point sets to compare them
    with the offsets the kernel actually touched. *)

type concrete = { coff : int; cdims : (int * int) list }

val concretize : (string -> int) -> t -> concrete
(** Evaluate offset and every (cardinal, stride) under [env].
    @raise Invalid_argument if a free variable is unbound in [env]. *)

val concrete_points : concrete -> int list
(** Enumerate the concrete point set, in row-major order of the
    dimensions. *)

val concrete_card : concrete -> int
(** Number of points ([concrete_points] length) without enumerating. *)

val concrete_extrema : concrete -> (int * int) option
(** Inclusive [(min, max)] offsets of the concrete point set, computed
    from the dimension signs without enumeration; [None] when the set is
    empty (some cardinal [<= 0]).  The certificate checker uses this to
    test footprint bounds at concrete sizes too large to enumerate. *)

val pp_concrete : Format.formatter -> concrete -> unit

val eval_points : (string -> int) -> t -> int list
(** [concrete_points (concretize env l)] (used by tests and the
    interpreter's slice semantics). *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
