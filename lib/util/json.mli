(** The repo's one JSON module: a value type, the one printer every
    emitter goes through (verification reports, lint JSON and SARIF,
    serve responses, bench artifacts), and the parser the serve
    protocol reads requests with. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

val int : int -> value
(** [int n] is [Num (float_of_int n)]. *)

(** {2 Printing} *)

val to_string : ?pretty:bool -> value -> string
(** Render a value.  Object fields keep their order.  A [Num] with an
    integral value of magnitude at most 2{^53} prints without a
    fraction; any other finite number prints in the shortest form that
    parses back to the same float; NaN and infinities print as [null].
    Strings escape the double quote, the backslash and every control
    character below U+0020; other bytes pass through unchanged.

    The default output is compact: one line, no whitespace, as the
    serve protocol needs.  [~pretty:true] is the layout of committed
    files, which should diff row by row: a container stays on one line
    when it holds no container or its compact form fits in 100
    columns, otherwise each element goes on its own indented line; the
    document ends with a newline. *)

val quote : string -> string
(** [quote s] is [to_string (Str s)]. *)

(** {2 Parsing}

    A plain recursive-descent parser for the serve protocol's
    line-delimited request objects.  Numbers are floats (JSON has one
    number type); \uXXXX escapes are decoded to UTF-8 without surrogate
    pair handling — protocol strings are configuration text and
    identifiers, never astral-plane text. *)

val parse : string -> (value, string) result
(** Parse one complete JSON document; trailing non-whitespace is an
    error, and so is nesting arrays and objects more than 512 deep.
    The error string names the first offending byte offset. *)

val member : string -> value -> value option
(** Object field lookup; [None] on missing fields and non-objects. *)

val get_string : value -> string option
val get_int : value -> int option
(** [Num] with an integral value of magnitude at most 2{^53} only;
    larger numbers are [None] rather than a wrapped [int]. *)

val get_float : value -> float option
val get_bool : value -> bool option
val get_list : value -> value list option

val string_list : value -> string list option
(** An array whose elements are all strings. *)
