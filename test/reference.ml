(* The write path and the accessibility pass as they stood before both
   moved onto Secview.Access's dense arrays: a balanced-set
   accessibility pass and a Check.run over sets and hash tables.  Kept
   verbatim as the reference the differential properties compare the
   array-based code against. *)

module Spec = Secview.Spec
module IntSet = Set.Make (Int)

let no_env : string -> string option = fun _ -> None

let accessible_set ?(env = no_env) spec doc =
  let ctx = Sxpath.Eval.Ctx.make ~env ~root:doc () in
  let result = ref IntSet.empty in
  (* anc_ok: every conditional annotation on a strict ancestor holds.
     parent_acc: the parent is accessible (for inheritance). *)
  let rec visit ~parent_tag ~anc_ok ~parent_acc (node : Sxml.Tree.t) =
    let child_key =
      match node.desc with
      | Sxml.Tree.Text _ -> Sdtd.Regex.pcdata
      | Sxml.Tree.Element e -> e.tag
    in
    let annot =
      match parent_tag with
      | None -> Some Spec.Yes (* the root is Y by default *)
      | Some parent -> Spec.annotation spec ~parent ~child:child_key
    in
    let self_acc, qual_ok =
      match annot with
      | Some Spec.Yes -> (anc_ok, true)
      | Some Spec.No -> (false, true)
      | Some (Spec.Cond q) ->
        let holds = Sxpath.Eval.check ctx q node in
        (anc_ok && holds, holds)
      | None -> (parent_acc, true)
    in
    if self_acc then result := IntSet.add node.id !result;
    match node.desc with
    | Sxml.Tree.Text _ -> ()
    | Sxml.Tree.Element e ->
      let anc_ok = anc_ok && qual_ok in
      List.iter
        (visit ~parent_tag:(Some e.tag) ~anc_ok ~parent_acc:self_acc)
        e.children
  in
  visit ~parent_tag:None ~anc_ok:true ~parent_acc:true doc;
  !result

module Ast = Supdate.Ast
module Tree = Sxml.Tree
module Error = Secview.Error

(* Parent node of every node id, for edge-grant lookups. *)
let parent_map doc =
  let tbl = Hashtbl.create 64 in
  Tree.iter
    (fun n -> List.iter (fun c -> Hashtbl.replace tbl c.Tree.id n) (Tree.children n))
    doc;
  tbl

let rec spec_size = function
  | Tree.E (_, _, cs) ->
    List.fold_left (fun acc c -> acc + spec_size c) 1 cs
  | Tree.T _ -> 1

(* Rebuild the document with the edit applied, numbering the candidate
   in of_spec's preorder as we go so the spliced content's id
   intervals in the new document are known without re-finding it, and
   recording the old id -> new id mapping of every surviving node so
   accessibility can be compared across the edit.  Exactly one of the
   target sets is non-empty per update. *)
type edit = {
  delete : IntSet.t;
  replace : IntSet.t;
  insert_into : IntSet.t;
  insert_before : IntSet.t;
  insert_after : IntSet.t;
  content : Tree.spec option;
}

let no_edit =
  {
    delete = IntSet.empty;
    replace = IntSet.empty;
    insert_into = IntSet.empty;
    insert_before = IntSet.empty;
    insert_after = IntSet.empty;
    content = None;
  }

let splice doc edit =
  let csize =
    match edit.content with Some c -> spec_size c | None -> 0
  in
  let intervals = ref [] in
  let survivors = Hashtbl.create 256 in
  let emit_content pos =
    intervals := (pos, pos + csize) :: !intervals;
    (Option.get edit.content, pos + csize)
  in
  let rec go (n : Tree.t) pos =
    if IntSet.mem n.Tree.id edit.delete then ([], pos)
    else if IntSet.mem n.Tree.id edit.replace then begin
      let c, pos = emit_content pos in
      ([ c ], pos)
    end
    else
      match n.Tree.desc with
      | Tree.Text s ->
        Hashtbl.replace survivors n.Tree.id pos;
        ([ Tree.T s ], pos + 1)
      | Tree.Element e ->
        Hashtbl.replace survivors n.Tree.id pos;
        let children_rev, pos =
          List.fold_left
            (fun (acc, pos) (c : Tree.t) ->
              let acc, pos =
                if IntSet.mem c.Tree.id edit.insert_before then begin
                  let s, pos = emit_content pos in
                  (s :: acc, pos)
                end
                else (acc, pos)
              in
              let cs, pos = go c pos in
              let acc = List.rev_append cs acc in
              if IntSet.mem c.Tree.id edit.insert_after then begin
                let s, pos = emit_content pos in
                (s :: acc, pos)
              end
              else (acc, pos))
            ([], pos + 1) e.Tree.children
        in
        let children_rev, pos =
          if IntSet.mem n.Tree.id edit.insert_into then begin
            let s, pos = emit_content pos in
            (s :: children_rev, pos)
          end
          else (children_rev, pos)
        in
        ([ Tree.E (e.Tree.tag, e.Tree.attrs, List.rev children_rev) ], pos)
  in
  match go doc 0 with
  | [ root ], _ -> (Tree.of_spec root, List.rev !intervals, survivors)
  | _ -> invalid_arg "Check.splice: the edit removed the document root"

let denied fmt = Printf.ksprintf (fun s -> Error.Update_denied s) fmt
let invalid fmt = Printf.ksprintf (fun s -> Error.Invalid_update s) fmt

(* Every update that carries content needs an element: grants are
   per-edge tag pairs, so bare text has no edge to grant.  A typed
   error, not an assertion — library callers can build any [Ast.t]. *)
let content_tag = function
  | Tree.E (tag, _, _) -> Ok tag
  | Tree.T _ -> Error (invalid "update content must be an element")

let run ~dtd ~spec ~view ?env ?height ?(audit = fun _ -> ()) doc update =
  let ( let* ) = Result.bind in
  let* () =
    match update with
    | Ast.Delete _ -> Ok ()
    | Ast.Insert { content; _ } | Ast.Replace { content; _ } ->
      Result.map ignore (content_tag content)
  in
  let* translated =
    match
      match height with
      | Some h ->
        Secview.Rewrite.rewrite_with_height view ~height:h
          (Ast.target update)
      | None -> Secview.Rewrite.rewrite view (Ast.target update)
    with
    | p -> Ok p
    | exception Secview.Rewrite.Unsupported msg ->
      Error (Error.Unsupported msg)
  in
  let* targets =
    match
      Sxpath.Eval.run (Sxpath.Eval.Ctx.make ?env ~root:doc ()) translated
    with
    | ts -> Ok ts
    | exception Sxpath.Eval.Unbound_variable name ->
      Error (Error.Unbound_variable name)
  in
  let* () =
    if targets = [] then
      Error (invalid "target matches no node of the view")
    else Ok ()
  in
  let parents = parent_map doc in
  let acc = accessible_set ?env spec doc in
  let op = Ast.op update in
  let edge_grant ~parent ~child =
    if Secview.Spec.writable spec ~parent ~child op then Ok ()
    else
      Error
        (denied "no %s grant on edge (%s, %s)"
           (Secview.Spec.write_op_to_string op)
           parent child)
  in
  let parent_tag (t : Tree.t) =
    match Hashtbl.find_opt parents t.Tree.id with
    | Some p -> (
      match Tree.tag p with Some tag -> Ok tag | None -> assert false)
    | None ->
      Error (denied "the document root has no parent edge to grant")
  in
  (* Denial text goes back to the client verbatim, so it must not name
     node identifiers: ids are dense preorder positions, and echoing
     the id of a hidden node (or the gap around it) would let a group
     probe out the size and location of subtrees the view conceals.
     The precise, id-bearing reason goes to [audit] instead — the
     server writes it to the operator's audit log only. *)
  let subtree_accessible (t : Tree.t) =
    match
      List.find_opt
        (fun (n : Tree.t) -> not (IntSet.mem n.Tree.id acc))
        (Tree.descendants_or_self t)
    with
    | None -> Ok ()
    | Some n ->
      audit
        (Printf.sprintf
           "target subtree at node id %d contains inaccessible node id %d"
           t.Tree.id n.Tree.id);
      Error (denied "target subtree contains inaccessible content")
  in
  let target_accessible (t : Tree.t) =
    if IntSet.mem t.Tree.id acc then Ok ()
    else begin
      audit (Printf.sprintf "target node id %d is not accessible" t.Tree.id);
      Error (denied "target node is not accessible")
    end
  in
  let check_target (t : Tree.t) =
    let ttag =
      match Tree.tag t with Some tag -> tag | None -> "#PCDATA"
    in
    let* () =
      if Tree.is_element t then Ok ()
      else Error (invalid "target is not an element node")
    in
    match update with
    | Ast.Delete _ ->
      let* () =
        if t.Tree.id = 0 then
          Error (invalid "cannot delete the document root")
        else Ok ()
      in
      let* ptag = parent_tag t in
      let* () = edge_grant ~parent:ptag ~child:ttag in
      subtree_accessible t
    | Ast.Replace _ ->
      let* ptag = parent_tag t in
      let* () = edge_grant ~parent:ptag ~child:ttag in
      subtree_accessible t
    | Ast.Insert { pos = Ast.Into; content; _ } ->
      let* ctag = content_tag content in
      let* () = target_accessible t in
      edge_grant ~parent:ttag ~child:ctag
    | Ast.Insert { pos = Ast.Before | Ast.After; content; _ } ->
      let* ctag = content_tag content in
      let* () = target_accessible t in
      let* ptag = parent_tag t in
      edge_grant ~parent:ptag ~child:ctag
  in
  let* () =
    List.fold_left
      (fun acc t -> Result.bind acc (fun () -> check_target t))
      (Ok ()) targets
  in
  let ids = List.fold_left (fun s (t : Tree.t) -> IntSet.add t.Tree.id s)
      IntSet.empty targets
  in
  let edit =
    match update with
    | Ast.Delete _ -> { no_edit with delete = ids }
    | Ast.Replace { content; _ } ->
      { no_edit with replace = ids; content = Some content }
    | Ast.Insert { pos; content; _ } -> (
      let content = Some content in
      match pos with
      | Ast.Into -> { no_edit with insert_into = ids; content }
      | Ast.Before -> { no_edit with insert_before = ids; content }
      | Ast.After -> { no_edit with insert_after = ids; content })
  in
  let candidate, intervals, survivors = splice doc edit in
  let* () =
    match Sdtd.Validate.check dtd candidate with
    | [] -> Ok ()
    | v :: _ ->
      (* the violation names a preorder id and the parent's children,
         hidden siblings included: operator-only, like the id-bearing
         denials above *)
      audit
        (Format.asprintf "result does not conform to the DTD: %a"
           Sdtd.Validate.pp_violation v);
      Error (invalid "result does not conform to the DTD")
  in
  let acc' = accessible_set ?env spec candidate in
  let* () =
    (* A group cannot write data it could not then read back: every
       node of the spliced content must be accessible in the new
       document.  (Deletes have no intervals; their admission was the
       subtree check above.) *)
    let bad =
      List.exists
        (fun (lo, hi) ->
          let rec any i =
            i < hi && ((not (IntSet.mem i acc')) || any (i + 1))
          in
          any lo)
        intervals
    in
    if bad then Error (denied "inserted content would not be accessible")
    else Ok ()
  in
  let* () =
    (* The other half of WITH CHECK OPTION: the edit must not flip the
       accessibility of anything it did not touch.  With conditional
       annotations a narrowly-granted write can otherwise satisfy (or
       falsify) a qualifier guarding a pre-existing sibling subtree
       and unlock data the group was never granted — so compare
       accessibility of every surviving node across the edit. *)
    let flipped = ref None in
    Tree.iter
      (fun (n : Tree.t) ->
        if !flipped = None then
          match Hashtbl.find_opt survivors n.Tree.id with
          | Some nid when IntSet.mem n.Tree.id acc <> IntSet.mem nid acc' ->
            flipped := Some (n.Tree.id, IntSet.mem nid acc')
          | _ -> ())
      doc;
    match !flipped with
    | None -> Ok ()
    | Some (id, now) ->
      audit
        (Printf.sprintf
           "update would make untouched node id %d %s" id
           (if now then "accessible" else "inaccessible"));
      Error (denied "update would change the visibility of existing content")
  in
  Ok (candidate, List.length targets)
