(** Sets of small integers as fixed-width bit vectors, [Sys.int_size]
    members to a word.  The alias classes and the last-use analysis
    keep their sets of interned array ids ({!Alias.id}) in them; every
    set one analysis builds has the same width, and the binary
    operations assume it. *)

type t

val create : int -> t
(** [create n] is the empty set over [0 .. n - 1]. *)

val add : t -> int -> unit
val remove : t -> int -> unit

val union : t -> t -> t

val union_into : t -> t -> unit
(** [union_into a b] adds [b]'s members to [a]. *)

val inter_into : t -> t -> unit
(** [inter_into a b] keeps in [a] only [b]'s members. *)

val iter : (int -> unit) -> t -> unit
(** Members in increasing order. *)

val iter_diff : (int -> unit) -> t -> t -> unit
(** [iter_diff f a b] applies [f] to the members of [a] not in [b], in
    increasing order. *)
