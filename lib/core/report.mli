(** Shared [Fmt]-based report rendering for pass statistics
    ({!Shortcircuit.pp_stats}) and verification reports
    ({!Memlint.pp_report}), so everything the CLI surfaces reads in one
    style. *)

val fields : Format.formatter -> (string * string) list -> unit
(** A vertical box of aligned [key value] lines. *)

val section :
  title:string -> Format.formatter -> (string * string) list -> unit
(** A titled {!fields} block: [\[title\]] followed by the fields. *)

val items :
  bullet:string ->
  (Format.formatter -> 'a -> unit) ->
  Format.formatter ->
  'a list ->
  unit
(** A bulleted vertical list; prints nothing for the empty list. *)
