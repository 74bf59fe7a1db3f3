(* One document walk fills every array: [flags] holds two bits per
   node, indexed by preorder position (identifier minus the root's):
   bit 0 — the node is accessible; bit 1 — every conditional
   annotation on the path from the root down to the node, the node
   included, holds (what an explicit [Y] on one of its attributes
   needs).  [parent], [extent] and [nodes] are the same positions'
   parent position (-1 at the root), last subtree position and node. *)
type t = {
  base : int;
  flags : Bytes.t;
  parent : int array;
  extent : int array;
  nodes : Sxml.Tree.t array;
}

let accessible_bit = 1
let chain_bit = 2
let no_env : string -> string option = fun _ -> None

let compute ?(env = no_env) spec (doc : Sxml.Tree.t) =
  let n = Sxml.Tree.size doc in
  let base = doc.id in
  let flags = Bytes.make n '\000' in
  let parent = Array.make n (-1) in
  let extent = Array.make n 0 in
  let nodes = Array.make n doc in
  let ctx = Sxpath.Eval.Ctx.make ~env ~root:doc () in
  let next = ref 0 in
  (* anc_ok: every conditional annotation on a strict ancestor holds.
     parent_acc: the parent is accessible (for inheritance). *)
  let rec visit ~parent_tag ~pid ~anc_ok ~parent_acc (node : Sxml.Tree.t) =
    let i = node.id - base in
    if i <> !next then
      invalid_arg "Access.compute: identifiers are not dense preorder";
    incr next;
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
    let chain = anc_ok && qual_ok in
    Bytes.unsafe_set flags i
      (Char.unsafe_chr
         ((if self_acc then accessible_bit else 0)
         lor if chain then chain_bit else 0));
    parent.(i) <- pid;
    nodes.(i) <- node;
    (match node.desc with
    | Sxml.Tree.Text _ -> ()
    | Sxml.Tree.Element e ->
      children ~parent_tag:(Some e.tag) ~pid:i ~anc_ok:chain
        ~parent_acc:self_acc e.children);
    extent.(i) <- !next - 1
  and children ~parent_tag ~pid ~anc_ok ~parent_acc = function
    | [] -> ()
    | c :: rest ->
      visit ~parent_tag ~pid ~anc_ok ~parent_acc c;
      children ~parent_tag ~pid ~anc_ok ~parent_acc rest
  in
  visit ~parent_tag:None ~pid:(-1) ~anc_ok:true ~parent_acc:true doc;
  { base; flags; parent; extent; nodes }

let flag t id bit =
  let i = id - t.base in
  i >= 0 && i < Bytes.length t.flags
  && Char.code (Bytes.unsafe_get t.flags i) land bit <> 0

let mem t id = flag t id accessible_bit

let parent t id =
  let p = t.parent.(id - t.base) in
  if p < 0 then None else Some t.nodes.(p)

let extent t id = t.extent.(id - t.base) + t.base

let first_inaccessible t ~lo ~hi =
  let rec scan id =
    if id > hi then None
    else if mem t id then scan (id + 1)
    else Some id
  in
  scan lo

let accessible_attributes ?env ?access spec doc node =
  match node.Sxml.Tree.desc with
  | Sxml.Tree.Text _ | Sxml.Tree.Element { attrs = []; _ } -> []
  | Sxml.Tree.Element e ->
    let declared = Sdtd.Dtd.attributes (Spec.dtd spec) e.tag in
    let t =
      match access with Some t -> t | None -> compute ?env spec doc
    in
    List.filter
      (fun (name, _) ->
        List.mem name declared
        &&
        match Spec.annotation spec ~parent:e.tag ~child:("@" ^ name) with
        | Some Spec.Yes -> flag t node.Sxml.Tree.id chain_bit
        | Some (Spec.Cond _) -> false (* rejected by Spec.make *)
        | Some Spec.No -> false
        | None -> mem t node.Sxml.Tree.id)
      e.attrs

let accessible_elements ?env spec doc =
  let t = compute ?env spec doc in
  Sxml.Tree.find_all
    (fun n -> Sxml.Tree.is_element n && mem t n.Sxml.Tree.id)
    doc

let annotate ?env ?(attribute = "accessibility") spec doc =
  let t = compute ?env spec doc in
  Sxml.Tree.map_attrs
    (fun node ->
      let flag = if mem t node.Sxml.Tree.id then "1" else "0" in
      let previous =
        match node.Sxml.Tree.desc with
        | Sxml.Tree.Element e ->
          List.remove_assoc attribute e.Sxml.Tree.attrs
        | Sxml.Tree.Text _ -> []
      in
      (attribute, flag) :: previous)
    doc
