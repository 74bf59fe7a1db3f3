(** XML serialization.

    Produces well-formed XML 1.0 text that {!Parse} reads back to a
    structurally equal tree.  Only the five predefined entities are
    escaped; no namespace or doctype machinery, matching the substrate's
    scope. *)

val escape_text : string -> string
(** Escape PCDATA ([&], [<], [>]). *)

val escape_attr : string -> string
(** Escape an attribute value for double-quoted output. *)

type sink = string -> int -> int -> unit
(** [emit s off len] receives the bytes [s.[off .. off + len - 1]]. *)

val walk : ?indent:bool -> sink -> Tree.t -> unit
(** [walk emit doc] serializes [doc] as a sequence of runs of
    already-escaped output: each run of bytes that needs no escaping
    goes to [emit] whole, as a slice of the tree's own string, and
    each escaped byte as its entity.  The runs concatenate to
    {!to_string}[ doc]; the walk itself allocates nothing per run.
    Every printer below is this walk feeding a different sink. *)

val to_buffer : ?indent:bool -> Buffer.t -> Tree.t -> unit

val to_string : ?indent:bool -> Tree.t -> string
(** [to_string doc] serializes the document.  With [~indent:true],
    element-only content is pretty-printed; mixed content is kept
    verbatim so round-tripping preserves PCDATA exactly. *)

val to_channel : ?indent:bool -> out_channel -> Tree.t -> unit

val to_file : ?indent:bool -> string -> Tree.t -> unit
