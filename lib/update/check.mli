(** Update rewriting and admission: the write-path analogue of query
    rewriting, with the relational [WITH CHECK OPTION] discipline.

    An update's target path is written over the group's view;
    {!run} translates it through the view's σ-functions exactly like a
    read query, evaluates the translation on the document, and admits
    the update only when every touched node stays inside the group's
    accessible region:

    - [delete]/[replace]: every node of every target {e subtree} must
      be accessible (removing a subtree that hides inaccessible data
      would destroy what the group cannot even see), and the target's
      parent edge must carry the matching write grant;
    - [insert]: each target must be accessible, the attachment edge
      must carry an [insert] grant, and the spliced content must be
      accessible {e in the resulting document} — a group cannot write
      data it could not then read back;
    - the edit must not change the accessibility of any node it does
      not touch: with conditional annotations, an otherwise-legal
      write could satisfy (or falsify) a qualifier guarding an
      untouched subtree and flip hidden data visible — such updates
      are denied;
    - the resulting document must conform to the document DTD.

    Every check reads the dense arrays of {!Secview.Access.t}: one
    accessibility pass over the old document, one over the candidate.
    Subtree checks scan the bitmap over a target's identifier
    interval, edge grants read the parent array, and preservation
    compares the two bitmaps through the splice's old-id → new-id
    array.

    The check is atomic by construction: it computes a candidate
    document purely and either returns it or an error — nothing
    partial ever escapes. *)

val run :
  dtd:Sdtd.Dtd.t ->
  spec:Secview.Spec.t ->
  view:Secview.View.t ->
  ?env:(string -> string option) ->
  ?height:int ->
  ?audit:(string -> unit) ->
  Sxml.Tree.t ->
  Ast.t ->
  (Sxml.Tree.t * int * Secview.Access.t, Secview.Error.t) result
(** [run ~dtd ~spec ~view doc u] is [(new_doc, targets, access)] when
    the update is admitted: the rebuilt document (fresh dense-preorder
    identifiers, root id 0), how many view nodes the target path
    matched, and the new document's accessibility — computed for the
    check, handed on so the caller need not compute it again.  [height] is the unfolding bound for recursive views
    (like {!Secview.Pipeline.translate}).

    Errors: [Update_denied] (missing grant, inaccessible target
    subtree, inaccessible content, visibility of untouched content
    would change), [Invalid_update] (text content, empty target set,
    root deletion, result violates the DTD), [Unsupported] (rewriting
    refused the target path), [Unbound_variable].

    Denial messages are deliberately structural-leak free: they never
    name node identifiers (an id is a dense preorder position, so
    echoing it would let a group map the hidden regions around its
    targets).  The precise id-bearing reason is passed to [audit]
    when given — callers should route it to a server-side audit log,
    never back to the client. *)
