(** Node accessibility (Section 3.2, Proposition 3.1).

    A node [v] with annotation [ann(v)] (looked up through its parent's
    element type, which is unique because DTDs are unambiguous) is
    accessible w.r.t. a specification iff either

    + [ann(v)] is [Y], or [ann(v)] is [\[q\]] and [q] holds at [v], and
      moreover every ancestor [v'] carrying a conditional annotation
      satisfies its qualifier; or
    + [ann(v)] is undefined and the parent of [v] is accessible.

    Note that an explicit [Y] {e overrides} an inaccessible parent
    (that is how [clinicalTrial]'s [patientInfo] child stays visible in
    the running example), but a false ancestor qualifier blocks the
    whole subtree. *)

type t
(** The accessibility of one document version, filled by one top-down
    walk (qualifier evaluations aside) into dense arrays indexed by
    preorder position: the accessibility bitmap, each node's parent,
    the extent of its subtree, and whether every qualifier on the
    path from the root down to the node holds.  Nodes are named by
    their identifiers; the walked tree's identifiers must be dense
    preorder from its root (anything {!Sxml.Tree.of_spec} or the
    parser produced). *)

val compute :
  ?env:(string -> string option) -> Spec.t -> Sxml.Tree.t -> t
(** @raise Invalid_argument when the identifiers are not dense
    preorder. *)

val mem : t -> int -> bool
(** [mem t id]: is node [id] accessible?  [false] outside the walked
    tree. *)

val parent : t -> int -> Sxml.Tree.t option
(** The parent of node [id]; [None] at the walked root. *)

val extent : t -> int -> int
(** Identifier of the last node of [id]'s subtree: the subtree is the
    interval [\[id, extent t id\]]. *)

val first_inaccessible : t -> lo:int -> hi:int -> int option
(** The first identifier of the interval [\[lo, hi\]] that is not
    accessible, if any. *)

val accessible_elements :
  ?env:(string -> string option) -> Spec.t -> Sxml.Tree.t ->
  Sxml.Tree.t list
(** Accessible element nodes in document order. *)

val accessible_attributes :
  ?env:(string -> string option) ->
  ?access:t ->
  Spec.t ->
  Sxml.Tree.t ->
  Sxml.Tree.t ->
  (string * string) list
(** The attributes of a node that the specification exposes: those with
    an explicit [("A", "@name")] annotation that grants access (with
    every ancestor qualifier true), plus — when the node itself is
    accessible — its unannotated attributes.  Only attributes the DTD
    declares for the element type are considered.  [access] is the
    document's {!compute}d accessibility, recomputed when absent. *)

val annotate :
  ?env:(string -> string option) -> ?attribute:string -> Spec.t ->
  Sxml.Tree.t -> Sxml.Tree.t
(** The naive baseline's preprocessing (Section 6): return a copy of
    the document where every element carries
    [attribute="1"] ("0" otherwise).  Default attribute name
    ["accessibility"].  Node identifiers are preserved. *)
