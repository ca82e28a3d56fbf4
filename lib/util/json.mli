(** Minimal JSON support shared by every emitter and the serve
    protocol.  This is deliberately not a full JSON library: the repo
    *produces* JSON from trusted data (all that must be centralized is
    string escaping) and *consumes* only the small line-delimited
    request objects of the serve protocol. *)

val escape : string -> string
(** Escape a string for inclusion between double quotes in a JSON
    document: backslash, double quote, and all control characters
    below U+0020 (named escapes for \n, \r, \t, \b, \f; \u00xx
    otherwise).  Everything else passes through byte-for-byte. *)

val quote : string -> string
(** [quote s] is [escape s] wrapped in double quotes. *)

val opt : string option -> string
(** [opt None] is [null]; [opt (Some s)] is [quote s]. *)

(** {2 Parsing}

    A plain recursive-descent parser for the serve protocol's
    line-delimited request objects.  Numbers are floats (JSON has one
    number type); \uXXXX escapes are decoded to UTF-8 without surrogate
    pair handling — protocol strings are configuration text and
    identifiers, never astral-plane text. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
(** Parse one complete JSON document; trailing non-whitespace is an
    error.  The error string names the first offending byte offset. *)

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
