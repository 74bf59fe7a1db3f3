module Pipeline = Secview.Pipeline
module Catalog = Secview.Catalog
module Error = Secview.Error

type receipt = {
  r_op : string;
  r_targets : int;
  r_old_version : int;
  r_new_version : int;
  r_doc : Sxml.Tree.t;
  r_view_digest : string;
}

(* The digest a writer gets back is of the group's *view* of the new
   document, never the raw document: a full-document digest would hand
   the writer an equality oracle on regions it cannot read (detect
   that hidden content changed between versions, or confirm a guessed
   whole-document value).  MD5 of the serialized materialized view —
   the same digest function Sobs.Capture uses, so capture/replay can
   compare it directly. *)
let view_digest ?env ?access ~spec ~view doc =
  let rendered =
    try
      Sxml.Print.to_string
        (Secview.Materialize.to_tree
           (Secview.Materialize.materialize ?env ?access ~spec ~view doc))
    with Secview.Materialize.Abort _ -> ""
  in
  Digest.to_hex (Digest.string rendered)

let apply svc ~group ?env ?audit ~entry update =
  let ( let* ) = Result.bind in
  let* spec =
    match Pipeline.Service.spec svc ~group with
    | Some spec -> Ok spec
    | None ->
      Error
        (Error.Update_denied
           (Printf.sprintf
              "group %S was built from a stored view: no access \
               specification, no write grants"
              group))
    | exception Not_found ->
      Error
        (Error.Unknown_group
           {
             group;
             known = Pipeline.Service.order svc;
           })
  in
  let view = Pipeline.Service.view svc ~group in
  let snapshot = Catalog.pin entry in
  let doc = Catalog.snapshot_doc snapshot in
  let height =
    if Sdtd.Dtd.is_recursive (Secview.View.dtd view) then
      Some (Catalog.snapshot_height (Pipeline.Service.catalog svc) snapshot)
    else None
  in
  let* candidate, targets, access =
    Check.run ~dtd:(Pipeline.Service.dtd svc) ~spec ~view ?env ?height ?audit
      doc update
  in
  let old_version = Catalog.snapshot_version snapshot in
  let new_version = Catalog.update entry candidate in
  Pipeline.Service.record_write svc;
  Ok
    {
      r_op = Ast.op_label update;
      r_targets = targets;
      r_old_version = old_version;
      r_new_version = new_version;
      r_doc = candidate;
      r_view_digest = view_digest ?env ~access ~spec ~view candidate;
    }

let apply_text svc ~group ?env ?audit ~entry text =
  match Parse.of_string text with
  | update -> apply svc ~group ?env ?audit ~entry update
  | exception Parse.Error msg -> Error (Error.Invalid_update msg)
