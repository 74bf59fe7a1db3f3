(** The transactional update orchestrator over a
    {!Secview.Pipeline.Service}.

    [apply] runs the full write path for one update: resolve the
    group's policy and view, pin the document's current catalog
    snapshot, admit the update through {!Check.run}, and — only on
    admission — swap the rebuilt document in as a new snapshot
    ({!Secview.Catalog.update}) and bump the service's write
    generation ({!Secview.Pipeline.Service.record_write}).  Session
    caches stay warm across the swap: their entries depend on the
    document only through the unfolding height in their key.  A
    rejected update returns before any of that: document, index,
    catalog version, generation and caches are bit-for-bit
    untouched.

    Concurrency: readers pinned on the old snapshot are never torn
    (snapshots are immutable), but two {e writers} racing on the same
    entry can lose an update between check and swap — callers must
    serialize writers per document.  The server routes every update
    through one coordinator domain; the CLI is single-threaded. *)

type receipt = {
  r_op : string;  (** ["insert"] / ["delete"] / ["replace"] *)
  r_targets : int;  (** view nodes the target path matched *)
  r_old_version : int;  (** catalog version the check ran against *)
  r_new_version : int;  (** version of the swapped-in snapshot *)
  r_doc : Sxml.Tree.t;  (** the new document *)
  r_view_digest : string;
      (** MD5 of the group's materialized view of the new document —
          the only digest that may be shown to the writer.  A digest
          of the raw document would be an equality oracle on content
          the view hides. *)
}

val view_digest :
  ?env:(string -> string option) ->
  ?access:Secview.Access.t ->
  spec:Secview.Spec.t ->
  view:Secview.View.t ->
  Sxml.Tree.t ->
  string
(** MD5 (hex) of the serialized materialized view of a document — the
    receipt's [r_view_digest]; the digest of [""] when materialization
    aborts.  [access] is the document's accessibility under [spec] and
    [env] when the caller already holds it ({!apply} passes the one
    {!Check.run} computed). *)

val apply :
  Secview.Pipeline.Service.t ->
  group:string ->
  ?env:(string -> string option) ->
  ?audit:(string -> unit) ->
  entry:Secview.Catalog.entry ->
  Ast.t ->
  (receipt, Secview.Error.t) result
(** Errors: everything {!Check.run} reports, plus [Unknown_group] and
    [Update_denied] when the group was built from a stored view — no
    policy, hence no write grants.  [audit] receives {!Check.run}'s
    id-bearing denial detail (server-side logs only). *)

val apply_text :
  Secview.Pipeline.Service.t ->
  group:string ->
  ?env:(string -> string option) ->
  ?audit:(string -> unit) ->
  entry:Secview.Catalog.entry ->
  string ->
  (receipt, Secview.Error.t) result
(** [apply] after parsing the concrete syntax; {!Parse.Error} becomes
    [Invalid_update]. *)
