(** Runtime values for the reference interpreter.

    Arrays are always materialized flat in row-major order: the
    reference semantics is purely functional and memory-agnostic (views
    copy eagerly); only the executor in [Gpu] honours index functions. *)

open Ast

type data = DF of float array | DI of int array | DB of bool array

type arr = { elt : sct; shape : int list; data : data }

type t =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VArr of arr
  | VMem of int  (** opaque memory-block token; semantically inert *)

val count : int list -> int
(** Element count of a shape. *)

val zeros : sct -> int list -> arr
val of_floats : int list -> float array -> arr
val of_ints : int list -> int array -> arr

val shell : sct -> int list -> arr
(** A shape-only array with no payload, for cost-only executions at
    paper-scale sizes (materializing tens of GB would be pointless). *)

val get_flat : arr -> int -> t
val set_flat : arr -> int -> t -> unit
val copy_arr : arr -> arr

val flatten_index : int list -> int list -> int
(** Row-major rank of a multi-index. *)

val indices : int list -> int list list
(** All multi-indices of a shape, row-major order. *)

val to_float : t -> float
val to_int : t -> int
val to_bool : t -> bool
val float_data : arr -> float array
val int_data : arr -> int array

val approx_equal : ?eps:float -> t -> t -> bool
(** Structural equality with a relative tolerance on floats; used to
    compare optimized output against the reference. *)

val bit_equal : t -> t -> bool
(** Exact equality, floats compared by [Int64.bits_of_float]: [-0.0]
    differs from [0.0] and a NaN equals itself. *)

val pp : Format.formatter -> t -> unit
