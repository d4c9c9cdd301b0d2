(** Anti-unification (least general generalization) of index functions
    (section IV-C).

    When the branches of an [if] (or a loop's initializer and body
    result) return arrays with different index functions, the enclosing
    binding takes their lgg: components on which the two sides agree
    are kept, every disagreement becomes a fresh existential variable,
    and each side additionally returns its witnesses.

    The paper's example: the lgg of [R(n,m) = 0 + {(n:m)(m:1)}] and
    [C(n,m) = 0 + {(n:1)(m:n)}] is [0 + {(n:a)(m:b)}] with
    [(a,b) = (m,1)] resp. [(1,n)]. *)

module P = Symalg.Poly

type binding = {
  exist : string;  (** the fresh existential variable *)
  left : P.t;  (** its witness in the left input *)
  right : P.t;  (** its witness in the right input *)
}

type result = { ixfn : Ixfn.t; bindings : binding list }

val ixfns :
  fresh:(string -> string) -> Ixfn.t -> Ixfn.t -> result option
(** The lgg of two index functions; [None] when their chains have
    different lengths or ranks disagree (the caller then normalizes
    with copies, as the paper does).  Each existential is named
    [fresh "ext"]; equal (left, right) disagreement pairs share one. *)
