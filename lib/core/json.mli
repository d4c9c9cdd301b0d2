(** One JSON value for every document the suite writes or reads:
    BENCH.json, the certificate documents, the chaos campaign record
    and the trace export are built as {!t} values and printed by
    {!to_string}; the CI gates ([Benchsuite.Benchjson]) read them back
    with {!parse}.

    The repo deliberately carries no JSON dependency, so both sides are
    hand-rolled: a compact printer with one escaper and one number
    rule, and a small recursive-descent reader covering the same subset
    (objects, arrays, strings with backslash escapes, numbers,
    booleans, null). *)

(** A JSON value.  Numbers are uniformly [float]: integers up to 2{^53}
    round-trip exactly. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in source order *)

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

(** {1 Printing} *)

val to_string : t -> string
(** The compact rendering: no whitespace, members in list order,
    numbers as {!number}.  In strings, double quotes and backslashes are
    backslash-escaped, a newline prints as [\n] and every other control
    character as [\u00XX]. *)

val number : float -> string
(** The one number rule: an integral number prints exactly ([%.0f]),
    any other with [%g]; nan and infinities print as [null]. *)

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Parse one complete JSON document.  Trailing input (beyond
    whitespace) is an error, as is any malformed construct; the error
    string names the byte offset.  A [\u] escape decodes to UTF-8. *)

(** {1 Accessors}

    All accessors are total: a shape mismatch yields [None], never an
    exception, so gate code can probe optional fields freely. *)

val member : string -> t -> t option
(** [member k v] is the value of key [k] when [v] is an object that
    has it. *)

val arr : t -> t list option
(** The elements, when the value is an array. *)

val num : t -> float option
(** The number, when the value is one. *)

val str : t -> string option
(** The string, when the value is one. *)

val num_at : string list -> t -> float option
(** [num_at path v] descends through nested objects along [path] and
    returns the number at the end, if every step exists. *)
