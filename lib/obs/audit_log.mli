(** Per-request security audit log: one JSON record per line (JSONL).

    An access-control system owes its administrators an account of
    what was asked and what was answered.  Each {!Secview.Trace}
    audit event — one per {!Secview.Pipeline.answer} call — becomes a
    record carrying the requesting group, the view query as asked,
    the document query actually evaluated, the translation-cache
    outcome, the unfolding height (recursive views), the result
    count, the error if the request raised, and (when a {!Tracer} is
    attached) the stage timings attributed to that request.

    The same stream also carries static-analysis diagnostics
    ({!log_diagnostic}: [secview lint] and the strict construction
    gate route through here), so audit and lint output can be
    collected from one place.  Record schemas, discriminated by the
    ["type"] field:

    {v
    {"type":"query","ts_ns":…,"group":…,"query":…,"translated":…,
     "cache":"hit"|"miss","height":N|null,"results":N,"error":S|null,
     "stages_ms":{"eval":…, …}}          (stages_ms only with a tracer)
    {"type":"diagnostic","ts_ns":…,"code":…,"severity":…,"subject":…,
     "message":…}
    {"type":"note","ts_ns":…,"kind":…,"message":…}
    {"type":"request","ts_ns":…,["rid":S,]"session":N,"peer":…,"group":…,
     "doc":…,"query":…,"status":"ok"|"error"|"timeout"|"late"|
     "overloaded"|"denied_empty","results":N,"latency_ms":F,
     "error":S|null}
    {"type":"slow_query","ts_ns":…,["rid":S,]["session":N,"peer":…,
     "doc":…,]"group":…,"query":…,"translated":S|null,"latency_ms":F,
     "threshold_ms":F,"stages_ms":{…},"op_counts":{"scanned":N,…},
     "gc_pause_ms":F|null,"gc_pauses":N|null}
    {"type":"update"|"update_denied","ts_ns":…,["rid":S,]["session":N,
     "peer":…,]"group":…,"doc":…,"update":…,"status":S,"targets":N|null,
     "old_version":N|null,"new_version":N|null,"latency_ms":F,
     "error":S|null}
    v}

    ["rid"] is the request-correlation id (PR 7): the same id is
    stamped into the protocol reply, the flight-recorder entry, and
    any capture record, so one request can be followed across every
    surface.

    ["request"], ["update"]/["update_denied"] and ["slow_query"]
    records are projections of one {!Request.t} ({!request},
    {!slow_query}): the server writes one per request it answers,
    stamped with the session's group and peer — the who-asked-what
    trail a multi-user deployment owes its administrators.  Callers
    serialize concurrent writes themselves (the server holds one
    observability lock); this module performs no locking.

    Timestamps are readings of the log's clock (monotonic by default:
    an arbitrary epoch, deterministic under {!Clock.fake}). *)

type sink =
  | Null  (** drop every record (hook installed, output discarded) *)
  | Stderr
  | Channel of out_channel
  | Buffer of Buffer.t  (** for tests *)

type t

val create : ?clock:Clock.t -> ?tracer:Tracer.t -> sink -> t
(** With [tracer], each query record carries ["stages_ms"]: the
    per-stage totals of the spans completed since the previous
    record. *)

val open_file : ?clock:Clock.t -> ?tracer:Tracer.t -> string -> t
(** Append-mode file sink; {!close} flushes and closes it. *)

val close : t -> unit
(** Flush; close the channel iff {!open_file} opened it. *)

val install : t -> unit
(** Register as the {!Secview.Trace} audit hook.  Pending tracer
    spans (e.g. from pipeline construction) are drained first so the
    first query record only carries its own stages. *)

val uninstall : unit -> unit

val log_event : t -> Secview.Trace.audit_event -> unit
val log_diagnostic :
  t -> code:string -> severity:string -> subject:string -> string -> unit
val log_note : t -> kind:string -> string -> unit

val request : t -> Request.t -> unit
(** The audit projection of one request.  A write ([verb = "update"])
    is kind ["update"] when admitted — with its [old_version →
    new_version] transition and target count — and ["update_denied"]
    otherwise, whatever refused it (the check, the deadline, a full
    queue), so a denied write is distinguishable from a denied query.
    Every other verb is kind ["request"] ([status] ∈ ok/error/timeout/
    late/overloaded/denied_empty; [latency_ms] includes queue wait).
    [error] carries the audit-only text. *)

val slow_query : t -> threshold_ms:float -> Request.t -> unit
(** One ["slow_query"] record — emitted by [query --slow-ms] and
    [serve --slow-ms] for any request over threshold: the translated
    query, per-stage millisecond totals of the request's own spans
    ({!Tracer.stage_totals}), the plan engine's operator totals (empty
    for the interpreter), and the GC attribution ([null] without a
    runtime consumer — absent is distinguishable from a measured
    zero).  The server's records also carry session, peer and the
    resolved document. *)
