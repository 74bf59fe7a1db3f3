(** A minimal JSON value, serializer and parser.

    Just enough for the metrics dump, the bench results file, the
    audit log and the server's line-delimited protocol — no
    dependency.  Serialization is deterministic: object fields are
    emitted in construction order, floats with ["%.6g"] (integral
    floats print without a fraction, which keeps golden tests and
    diffs stable).  The parser accepts standard JSON: numbers without
    a fraction or exponent that fit in [int] become [Int], everything
    else numeric becomes [Float]; [\u] escapes (including surrogate
    pairs) decode to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s rendering. *)

val to_channel : out_channel -> t -> unit

val add_escaped_substring : Buffer.t -> string -> int -> int -> unit
(** [add_escaped_substring buf s off len] appends the body of a JSON
    string literal (no surrounding quotes) for
    [s.[off .. off + len - 1]]: the double quote and the backslash
    backslash-escaped, [\n] [\r] [\t] as such, every other byte below
    0x20 as [\u00XX], all other bytes verbatim.  Runs that need no
    escaping are copied with one blit each.  This is the one string
    escaper: {!to_string} uses it too.
    @raise Invalid_argument if the range is not within [s]. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value (leading/trailing whitespace
    allowed; anything else after the value is an error).  The error
    string carries the byte offset. *)

(** {1 Accessors}

    Structure-probing helpers for protocol decoding; all total. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** [Int]s widen to float. *)

val to_bool_opt : t -> bool option
