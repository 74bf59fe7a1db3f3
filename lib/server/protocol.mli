(** The server's wire protocol: one JSON object per line, both ways.

    Requests, discriminated by ["cmd"]:

    {v
    {"cmd":"hello","group":G,"peer":P?}          bind the session to a group
    {"cmd":"query","query":Q,"doc":D?,           answer a view query
     "bind":{name:value,…}?,"index":B?}
    {"cmd":"explain","query":Q,"doc":D?,         EXPLAIN instead of answer
     "bind":{name:value,…}?}                     (same fields as query)
    {"cmd":"analyze","query":Q}                  static admission verdict only
    {"cmd":"update","update":U,"doc":D?,         run a view update
     "bind":{name:value,…}?}                     (transactional; see below)
    {"cmd":"stats"}                              server statistics
    {"cmd":"metrics"}                            metrics dump + OpenMetrics
    {"cmd":"flight"}                             flight-recorder dump
    {"cmd":"ping"}                               liveness
    {"cmd":"shutdown"}                           reply, then drain
    {"cmd":"sleep","ms":N}                       debug servers only
    v}

    Every request may additionally carry a string ["rid"] — a
    client-chosen request-correlation id.  Replies always carry
    ["ok"], the protocol version ["v"], and a ["rid"] (echoing the
    client's, or server-generated [r<session>-<n>] otherwise):
    [{"ok":true,"v":1,"rid":R,…}] on success,
    [{"ok":false,"v":1,"rid":R,"code":C,"error":MSG}] on failure,
    where [code] is one of the constants below — [overloaded] is the
    admission-control reply and means "try again", not "goodbye".
    The same rid is stamped into the server's audit records and
    flight-recorder entries. *)

type query = {
  doc : string option;  (** catalog name; optional iff one document *)
  text : string;  (** the view query, fragment-C XPath *)
  bind : (string * string) list;  (** [$variable] bindings *)
  use_index : bool;  (** evaluate with the document's tag index *)
}

type request =
  | Hello of {
      group : string;
      peer : string option;
    }
  | Query of query
  | Explain of query  (** same shape as a query; answered with a plan tree *)
  | Analyze of query
      (** same shape as a query; answered with the static admission
          verdict ({!Secview.Pipeline.classify}) — no document is
          touched, no evaluation runs *)
  | Update of query
      (** [text] holds the update's concrete syntax (the [update]
          wire field); [use_index] is always [false].  Runs through
          the worker pool like a query but serialized per document
          against other writers; an admitted update's reply carries
          the target count and the [old_version → new_version]
          transition, a rejected one is an [update_denied] /
          [invalid_update] error reply with nothing applied *)
  | Stats
  | Metrics
  | Flight  (** flight-recorder dump; session-less like [Metrics] *)
  | Ping
  | Shutdown
  | Sleep of float  (** seconds; only honoured by [--debug] servers *)

val request_of_line : string -> (request * string option, string) result
(** Decode one line; the second component is the client-supplied
    ["rid"], if any.  The error string is human-readable and becomes
    the [bad_request] reply's message. *)

val rid_of_line : string -> string option
(** Best-effort ["rid"] recovery from a line that failed to decode as
    a command — error replies stay correlatable when the request was
    at least a JSON object. *)

val version : int
(** The protocol version, 1.  Every reply carries it as ["v"];
    requests may carry ["v"] too, and a value other than the server's
    version is refused as [bad_request] (a missing ["v"] is accepted
    as "current"). *)

(** {1 Error codes} *)

val bad_request : string
val unknown_group : string
val no_session : string
val unknown_document : string
val overloaded : string
val draining : string
val timeout : string
val query_error : string
val update_denied : string
val invalid_update : string

(** {1 Reply and request builders} *)

val ok : ?rid:string -> (string * Sobs.Json.t) list -> Sobs.Json.t
(** [{"ok":true,"v":1,"rid":R}] plus the given fields (rid omitted
    when absent — only the CLI's local drivers omit it). *)

val error : ?rid:string -> code:string -> string -> Sobs.Json.t

val error_of : ?rid:string -> Secview.Error.t -> Sobs.Json.t
(** Error reply for a typed engine error: the code is
    {!Secview.Error.to_code}, the message {!Secview.Error.to_string}. *)

(** {1 Wire lines} *)

val line : Sobs.Json.t -> string
(** A reply as its wire line: {!Sobs.Json.to_string} and ["\n"],
    rendered into one buffer.  Every reply but an answer goes out
    through this. *)

val answer_line : Buffer.t -> rid:string -> Sxml.Tree.t list -> string
(** [answer_line buf ~rid nodes] is the answer reply's wire line,
    [{"ok":true,"v":1,"rid":R,"results":[…],"count":N}] and ["\n"],
    where each result is the node's {!Sxml.Print.to_string} as a JSON
    string.  It is rendered in one pass: {!Sxml.Print.walk}'s escaped
    runs go through {!Sobs.Json.add_escaped_substring} straight into
    [buf] (cleared first; the caller keeps it to reuse its storage),
    and the line is the one copy out of it.  Byte-identical to
    [line (ok ~rid [("results", List [String (Sxml.Print.to_string n); …]);
    ("count", Int N)])], the composition the tests keep as its
    oracle. *)

val hello : ?peer:string -> string -> Sobs.Json.t
val query_json :
  ?rid:string ->
  ?doc:string ->
  ?bind:(string * string) list ->
  ?use_index:bool ->
  string ->
  Sobs.Json.t
(** With [rid], the client picks the correlation id ([secview replay]
    re-sends the captured ids so a replayed request is traceable in
    both capture and live logs). *)

val update_json :
  ?rid:string ->
  ?doc:string ->
  ?bind:(string * string) list ->
  string ->
  Sobs.Json.t
(** An update command carrying the concrete update syntax. *)

val simple : string -> Sobs.Json.t
(** [{"cmd":CMD}] — for [stats], [metrics], [ping], [shutdown]. *)

val explain_json : Splan.Explain.node -> Sobs.Json.t
(** A {!Splan.Explain} tree as JSON: [op], [arg] (when present),
    [counts] as an object, [children] (when non-empty).  Shared by the
    [explain] server verb and [secview explain --json]. *)
