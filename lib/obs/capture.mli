(** Replayable workload capture: one JSONL record per answered query.

    [secview query --capture] and [secview serve --capture] append one
    record per request; [secview replay] re-executes them (against
    {!Secview.Pipeline} or a live server) and byte-compares each
    answer against the captured [digest].  Schema (version field
    first, so readers can reject future formats cheaply):

    {v
    {"v":2,"rid":S,"verb":"query"|"update","group":S,"doc":S|null,
     "query":S,"bind":{…},"index":B,"engine":"plan"|"interp",
     "status":S,"results":N,"digest":S,"latency_ms":F}
    v}

    Version 1 files (no [verb] field — everything was a query) read
    back fine; the writer always emits version 2.

    For queries, [digest] is the MD5 hex of the rendered result lines
    joined with ["\n"] — the same rendering the CLI prints and the
    server puts in its ["results"] reply field, so a replay digest
    match means the byte-identical answer.  For updates, [query] holds
    the update's concrete syntax, [results] the target count, and
    [digest] the MD5 hex of the writing {e group's view} of the
    resulting document ([Supdate.Engine]'s [r_view_digest]; the raw
    document's digest would be an equality oracle on hidden regions)
    — a replay digest match means the replayed write rebuilt the
    byte-identical view.

    A record is a {!Request.t} projection: [doc] is the document as
    the client named it ([null] = the requester's default), and
    [status] is ["ok"] for an answered request (a [late] answer is
    still the right one) or ["denied_empty"] for an admission-path
    denial.  Reading fills the fields the schema does not carry from
    {!Request.empty}. *)

val schema_version : int

val digest : string list -> string
(** MD5 hex of the rendered result lines, joined with ["\n"]. *)

val to_json : Request.t -> Json.t
val of_json : Json.t -> (Request.t, string) result

(** {2 Writing} *)

type t
(** A capture sink: an open file plus a mutex serializing concurrent
    server workers.  Every record is flushed on write. *)

val open_file : string -> t
(** Opens in append mode (creating the file if needed), so several
    process runs pointed at the same path build one workload — the
    way a mixed read/write capture is assembled from the CLI. *)

val write : t -> Request.t -> unit
val close : t -> unit

(** {2 Reading} *)

val read_file : string -> (Request.t list, string) result
(** Parse a capture file; the error carries [file:line]. *)
