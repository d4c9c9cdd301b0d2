(** Value-alias analysis: which array variables may share memory.

    Views (slices, transposition, reshaping, reversal) alias their
    operand; update results alias the consumed destination; [if]/[loop]
    results alias what the branches/body return.  Classes are global
    across nested blocks (conservative).

    The relation is not closed transitively.  Binding [v] to targets
    [ts] makes one class of [v] and the current classes of [ts], and
    every member's class becomes that one, so a member's older class
    is dropped: in a loop [acc = a0] whose body takes
    [y = acc\[0 :+ n : 1\]] and returns a fresh [t], the body binds
    [y] first ([closure y = {acc, y}]), then the parameter and the
    loop's result [r] give [closure acc = {a0, acc, r, t}], which no
    longer holds [y], and [a0] is not in [closure y].

    Representation: [of_prog] numbers, in one walk, every array binder
    and every name an alias can target; each class is one {!Bitset.t}
    over those ids, shared by all of its members. *)

type t

val of_prog : Ir.Ast.prog -> t

val closure : t -> string -> Ir.Ast.SS.t
(** The alias class of a variable (including itself), by name. *)

(** {1 Ids, for the last-use analysis} *)

val size : t -> int
(** The number of ids: every id is below it. *)

val id : t -> string -> int
(** A name's id, or [-1] for a name with none (it is no array and in
    no class). *)

val name : t -> int -> string

val arrays : t -> Bitset.t
(** The ids whose binder is array-typed (the last binder walked, for
    a name bound twice). *)

val close_into : t -> Bitset.t -> int -> unit
(** [close_into t acc i] adds the class of id [i] to [acc]. *)
