(** Proof-local binders of the non-overlap queries.

    A query about two threads or two iterations renames one side's
    nest or loop variable [v] to a binder ranging over the others.
    Naming that binder [tag#v] - after the variable, never from a
    counter - makes equal questions equal prover goals wherever they
    are asked, so they share the prover's memo entries; ['#'] occurs
    in no IR or surface name. *)

val name :
  where:string ->
  string ->
  string ->
  Symalg.Prover.t ->
  Lmads.Refset.t list ->
  string
(** [name ~where tag v ctx sets] is [tag ^ "#" ^ v].
    @raise Fault.Fault ([Internal], blamed on [where]) if [ctx] or any
    of [sets] already mentions that name: the query would then
    confuse the binder with a variable it already has. *)
