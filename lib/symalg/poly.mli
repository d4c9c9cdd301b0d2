(** Multivariate integer polynomials in normal form.

    This is the term language in which LMAD offsets, strides and cardinals
    are expressed (paper, eq. (1)), and in which the inequalities of the
    non-overlap test (section V-C) are stated before being discharged by
    {!Prover}.  Polynomials are kept in a canonical sorted representation,
    so structural equality of the normal forms decides semantic equality. *)

type mono = {
  coeff : int;  (** nonzero integer coefficient *)
  pows : (string * int) list;
      (** power product: variables sorted by name, exponents >= 1 *)
}
(** A monomial [coeff * v1^e1 * ... * vk^ek]. *)

type t
(** A polynomial: monomials in decreasing graded-lexicographic order. *)

(** {1 Construction} *)

val zero : t
val one : t

val const : int -> t
(** [const c] is the constant polynomial [c]. *)

val var : string -> t
(** [var v] is the polynomial [v]. *)

val monos : t -> mono list
(** The monomials of the normal form, largest first. *)

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val scale : int -> t -> t
(** [scale c p] is [c * p]. *)

val sum : t list -> t
val prod : t list -> t

(** Infix aliases for {!add}, {!sub}, {!mul}, {!neg}. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( ~- ) : t -> t
end

(** {1 Queries} *)

val is_zero : t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order compatible with {!equal} (graded-lexicographic). *)

val hash : t -> int
(** A hash of every monomial of the normal form, compatible with
    {!equal}. *)

val to_const_opt : t -> int option
(** [Some c] iff the polynomial is the constant [c]. *)

val is_const : t -> bool

val degree : t -> int
(** Total degree; 0 for constants (including zero). *)

val vars : t -> string list
(** Variables occurring, sorted, without duplicates. *)

val mem_var : string -> t -> bool

val degree_in : string -> t -> int
(** Maximum exponent of the given variable. *)

(** {1 Substitution and evaluation} *)

module SM : Map.S with type key = string

val subst : string -> t -> t -> t
(** [subst v by p] replaces every occurrence of [v] in [p] by [by]. *)

val subst_map : t SM.t -> t -> t
(** Simultaneous-ish substitution (applied in key order, once). *)

val subst_fixpoint : ?fuel:int -> t SM.t -> t -> t
(** Substitute repeatedly until no key of the map occurs in the result;
    this is the index-function translation step of section V-A(b).
    @raise Failure if no fixpoint is reached (substitution cycle). *)

val eval : (string -> int) -> t -> int
(** Evaluate under a concrete integer environment. *)

val rename : (string -> string) -> t -> t
(** Rename variables. *)

(** {1 Structure} *)

val linear_in : string -> t -> (t * t) option
(** [linear_in v p] is [Some (a, b)] when [p = a*v + b] with [v] free in
    neither [a] nor [b]; [None] when [p] is nonlinear in [v].  This is
    the decomposition behind LMAD aggregation across loop indices
    (section II-B): [a] becomes the stride of the promoted dimension. *)

val coeffs_in : string -> t -> t array
(** [coeffs_in v p] is the array [c] with [p = sum_k c.(k) * v^k]. *)

val div_rem : t -> t -> t * t
(** [div_rem p d] is [(q, r)] with [p = q*d + r] and no monomial of [r]
    divisible by the leading monomial of [d].  Used to distribute offset
    terms over strides in the non-overlap test (section V-C, footnote
    27).  @raise Invalid_argument if [d] is zero. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
