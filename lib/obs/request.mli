(** One request's outcome, built once and projected by every sink.

    A served (or CLI) request produces one record: who asked what,
    against which document version, how it ended, and what it cost.
    The sinks are projections of it — {!Audit_log.request} and
    {!Audit_log.slow_query}, the flight recorder's
    {!Recorder.entry_json}, and the replayable {!Capture} line — so a
    field added here reaches every sink that wants it, and the same
    request reads the same on each.

    [error] is the audit-only text: for a denied write it keeps the
    admission check's id-bearing detail ({!audit_error}), which the
    client's reply never carries. *)

type t = {
  rid : string;
      (** request-correlation id, as stamped in the reply; [""] for a
          request without one (audit records then omit the field) *)
  verb : string;  (** ["query"], ["explain"], ["update"] or ["sleep"] *)
  session : int option;  (** server session, [None] for CLI requests *)
  peer : string option;
  group : string;
  doc : string option;
      (** the document as the client named it; [None] = the requester's
          default (capture and replay keep it that way) *)
  doc_label : string option;
      (** the document name it resolved to, as audit and flight show
          it; [None] where the surface names no document *)
  doc_version : int option;  (** {!Secview.Catalog.version} stamp *)
  query : string;  (** query text, or the update's concrete syntax *)
  bind : (string * string) list;
  index : bool;  (** the query ran over the preorder index *)
  engine : string;  (** ["plan"] or ["interp"] *)
  admission : string option;  (** {!Secview.Pipeline.admission_label} *)
  status : string;
      (** ok/error/timeout/late/overloaded/denied_empty, or a write's
          error code *)
  error : string option;  (** audit-only error text *)
  results : int;  (** answer size, or an admitted write's target count *)
  digest : string option;
      (** MD5 hex of the rendered answer ({!Capture.digest}), or the
          writing group's view digest of an admitted write; computed
          only when a sink asks for it *)
  latency_ms : float;
  gc_pause : (float * int) option;
      (** pause milliseconds and episodes overlapping the request's
          span window ({!Runtime.overlap}); [None] when no runtime
          consumer is running *)
  ts_ns : int64;  (** monotonic stamp of the outcome *)
  spans : Tracer.span list;  (** this request's span tree *)
  counts : (string * int) list;  (** plan operator totals *)
  translated : string option;  (** the document query that ran *)
  targets : int option;  (** an admitted write's target count *)
  old_version : int option;  (** an admitted write's version transition *)
  new_version : int option;
}

val empty : t
(** No identity, an ["ok"] query with no results, no cost: the record
    a site starts from, overriding what it knows. *)

val audit_error : Secview.Error.t -> detail:string option -> string
(** The audit text of a failed request: the client-facing message,
    followed by the admission check's id-bearing [detail] in brackets
    when there is one. *)
