module Access = Secview.Access
module Tree = Sxml.Tree
module Error = Secview.Error

let rec spec_size = function
  | Tree.E (_, _, cs) ->
    List.fold_left (fun acc c -> acc + spec_size c) 1 cs
  | Tree.T _ -> 1

(* Rebuild the document with the edit applied at every node [is_target]
   names, numbering the candidate in of_spec's preorder as we go so the
   spliced content's id intervals in the new document are known
   without re-finding it, and recording in [survivors] (indexed by old
   preorder position, -1 for removed nodes) the new id of every
   surviving node so accessibility can be compared across the
   edit. *)
let splice doc update ~is_target =
  let content =
    match update with
    | Ast.Delete _ -> None
    | Ast.Insert { content; _ } | Ast.Replace { content; _ } -> Some content
  in
  let csize = match content with Some c -> spec_size c | None -> 0 in
  let base = doc.Tree.id in
  let survivors = Array.make (Tree.size doc) (-1) in
  let intervals = ref [] in
  let pos = ref 0 in
  let emit_content acc =
    intervals := (!pos, !pos + csize) :: !intervals;
    pos := !pos + csize;
    Option.get content :: acc
  in
  (* where the edit lands at a target: in its place, or inserted *)
  let place =
    match update with
    | Ast.Insert { pos; _ } -> Some pos
    | Ast.Delete _ | Ast.Replace _ -> None
  in
  let at p id = is_target id && place = p in
  (* [go acc n] pushes what [n] becomes onto [acc], a reversed sibling
     list: nothing (delete), the content (replace), or its copy. *)
  let rec go acc (n : Tree.t) =
    if at None n.Tree.id then
      match update with
      | Ast.Delete _ -> acc
      | Ast.Insert _ | Ast.Replace _ -> emit_content acc
    else begin
      survivors.(n.Tree.id - base) <- !pos;
      incr pos;
      match n.Tree.desc with
      | Tree.Text s -> Tree.T s :: acc
      | Tree.Element e ->
        let children = copy_children [] e.Tree.children in
        let children =
          if at (Some Ast.Into) n.Tree.id then emit_content children
          else children
        in
        Tree.E (e.Tree.tag, e.Tree.attrs, List.rev children) :: acc
    end
  and copy_children acc = function
    | [] -> acc
    | (c : Tree.t) :: rest ->
      let acc =
        if at (Some Ast.Before) c.Tree.id then emit_content acc else acc
      in
      let acc = go acc c in
      let acc =
        if at (Some Ast.After) c.Tree.id then emit_content acc else acc
      in
      copy_children acc rest
  in
  match go [] doc with
  | [ root ] -> (Tree.of_spec root, List.rev !intervals, survivors)
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
  let acc = Access.compute ?env spec doc in
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
    match Access.parent acc t.Tree.id with
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
    let id = t.Tree.id in
    match Access.first_inaccessible acc ~lo:id ~hi:(Access.extent acc id) with
    | None -> Ok ()
    | Some n ->
      audit
        (Printf.sprintf
           "target subtree at node id %d contains inaccessible node id %d"
           id n);
      Error (denied "target subtree contains inaccessible content")
  in
  let target_accessible (t : Tree.t) =
    if Access.mem acc t.Tree.id then Ok ()
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
  let base = doc.Tree.id in
  let marks = Bytes.make (Tree.size doc) '\000' in
  List.iter (fun (t : Tree.t) -> Bytes.set marks (t.Tree.id - base) '\001')
    targets;
  let candidate, intervals, survivors =
    splice doc update ~is_target:(fun id ->
        Bytes.unsafe_get marks (id - base) <> '\000')
  in
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
  let acc' = Access.compute ?env spec candidate in
  let* () =
    (* A group cannot write data it could not then read back: every
       node of the spliced content must be accessible in the new
       document.  (Deletes have no intervals; their admission was the
       subtree check above.) *)
    if
      List.exists
        (fun (lo, hi) ->
          Access.first_inaccessible acc' ~lo ~hi:(hi - 1) <> None)
        intervals
    then Error (denied "inserted content would not be accessible")
    else Ok ()
  in
  let* () =
    (* The other half of WITH CHECK OPTION: the edit must not flip the
       accessibility of anything it did not touch.  With conditional
       annotations a narrowly-granted write can otherwise satisfy (or
       falsify) a qualifier guarding a pre-existing sibling subtree
       and unlock data the group was never granted — so compare
       accessibility of every surviving node across the edit, in
       document order. *)
    let rec scan i =
      if i >= Array.length survivors then None
      else
        let nid = survivors.(i) in
        if nid >= 0 && Access.mem acc (base + i) <> Access.mem acc' nid then
          Some (base + i, Access.mem acc' nid)
        else scan (i + 1)
    in
    match scan 0 with
    | None -> Ok ()
    | Some (id, now) ->
      audit
        (Printf.sprintf
           "update would make untouched node id %d %s" id
           (if now then "accessible" else "inaccessible"));
      Error (denied "update would change the visibility of existing content")
  in
  Ok (candidate, List.length targets, acc')
