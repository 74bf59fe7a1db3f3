(** Materialization semantics of security views (Section 3.3).

    Security views are never materialized in the query pipeline; this
    module implements the top-down construction the paper uses to
    {e define} view semantics, and the test suite uses it as the ground
    truth for soundness/completeness of {!Derive} and for equivalence
    of {!Rewrite}.

    Each view element remembers the document node it was extracted
    from, so tests can check "all and only accessible nodes appear"
    directly. *)

type vtree = {
  vlabel : string;  (** view element type (possibly a dummy) *)
  source : Sxml.Tree.t;  (** the document node this element stands for *)
  vattrs : (string * string) list;
      (** the source's attributes the specification exposes *)
  vchildren : vchild list;
}

and vchild =
  | Velem of vtree
  | Vtext of string

exception Abort of string
(** Raised when the construction aborts: an extracted child sequence
    does not conform to the view production (the paper's cases 2–4
    failure conditions, generalized to arbitrary view productions via
    regular-language membership). *)

val materialize :
  ?env:(string -> string option) ->
  ?access:Access.t ->
  spec:Spec.t ->
  view:View.t ->
  Sxml.Tree.t ->
  vtree
(** Children of a view element bound to document node [v] are: for
    each element label [B] of its view production, the {e accessible}
    nodes of [σ(A,B)] evaluated at [v] (for dummy labels, accessibility
    of the node itself is not required — dummies stand for hidden
    nodes), plus the accessible text children of [v] when the
    production mentions PCDATA; all ordered by document order.
    [access] is the document's {!Access.compute}d accessibility under
    [spec] and [env] — pass it when the caller already holds it;
    otherwise it is computed here.
    @raise Abort when the resulting label word violates the
    production. *)

val to_tree : vtree -> Sxml.Tree.t
(** Forget sources; fresh preorder identifiers. *)

val to_tree_with_sources : vtree -> Sxml.Tree.t * (int -> int option)
(** Like {!to_tree}, but also return the mapping from the new tree's
    element identifiers back to the source document node identifiers —
    what equivalence tests use to compare query answers over the view
    with answers over the document. *)

val element_sources : vtree -> (string * int) list
(** [(label, source id)] for every element of the view, preorder. *)

val size : vtree -> int
(** Number of elements and text nodes. *)
