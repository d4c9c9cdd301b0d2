(** Builder combinators for constructing IR programs.

    A builder carries a typing environment (result types of statements
    are inferred with {!Check.infer_pure}) and generates fresh binder
    names; the elaborator and the tests author IR through this module
    rather than raw constructors. *)

open Ast
module P = Symalg.Poly
module SM : Map.S with type key = string

type t = {
  mutable stms : stm list;  (** accumulated statements, reversed *)
  mutable types : typ SM.t;
  parent : t option;
  names : Names.supply;  (** shared by a builder and all its children *)
}

val make : ?parent:t -> unit -> t
(** A child of [parent] shares its supply; a root builder starts its
    own. *)

val fresh : t -> string -> string
(** [fresh b base] draws a name from [b]'s program's supply. *)

val declare : t -> string -> typ -> unit
(** Register an externally-bound variable (e.g. a parameter). *)

val typ_of : t -> string -> typ
(** @raise Invalid_argument when unbound. *)

val bind_multi : ?names:string list -> t -> exp -> string list
(** Append a statement binding fresh names for each result. *)

val bind : t -> string -> exp -> string
(** Single-result {!bind_multi}; the string seeds the fresh name. *)

val bind_exact : t -> string -> exp -> string
(** Bind with the exact (non-freshened) name; for tests wanting
    predictable output. *)

val subblock : t -> ?binds:(string * typ) list -> (t -> atom list) -> block
(** Build a nested block in a child builder, pre-declaring [binds]. *)

(** {1 Structured statements} *)

val mapnest : t -> string -> (string * idx) list -> (t -> atom list) -> string
(** [mapnest b name nest body]: a parallel nest; the nest variables are
    declared [i64] in the body builder. *)

val mapnest_multi :
  ?names:string list -> t -> (string * idx) list -> (t -> atom list) ->
  string list

val loop :
  t -> string -> (string * typ * atom) list -> var:string -> bound:idx ->
  (t -> atom list) -> string list
(** Sequential loop over accumulators [(name, type, init)]. *)

val loop1 :
  t -> string -> typ -> atom -> bound:idx ->
  (t -> param:string -> i:P.t -> atom) -> string
(** Single-accumulator loop with generated parameter/index names,
    handed to the body callback - keeps repeated instantiations of one
    template unique program-wide. *)

val if_ : t -> string -> atom -> (t -> atom list) -> (t -> atom list) ->
  string list

(** {1 Scalar conveniences (each may emit a statement)} *)

val idx : t -> idx -> atom
(** Materialize an index polynomial as an atom (constant, variable, or
    a fresh [EIdx] binding). *)

val binop : t -> binop -> atom -> atom -> atom
val unop : t -> unop -> atom -> atom
val cmp : t -> cmpop -> atom -> atom -> atom
val index : t -> string -> idx list -> atom
val fadd : t -> atom -> atom -> atom
val fmul : t -> atom -> atom -> atom

(** {1 Programs and slices} *)

val prog :
  ?ctx:Symalg.Prover.t -> string -> params:pat_elem list -> ret:typ list ->
  (t -> atom list) -> prog
(** Build and type/uniqueness-check a program; [ctx] records the size
    assumptions available to the short-circuiting analysis.  Its names
    come from a supply that starts above the parameters' numeric
    suffixes, so the program is a function of these arguments alone. *)

val range : ?step:idx -> idx -> idx -> slice_dim
(** [range start len] = the triplet component [start :+ len : step]. *)

val all : idx -> slice_dim
(** The full dimension [0 :+ n : 1]. *)
