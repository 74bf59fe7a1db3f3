type vtree = {
  vlabel : string;
  source : Sxml.Tree.t;
  vattrs : (string * string) list;
  vchildren : vchild list;
}

and vchild =
  | Velem of vtree
  | Vtext of string

exception Abort of string

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

(* A child a view element may get: a node σ extracted under a label,
   or an accessible text child of the source. *)
type candidate =
  | Cand_elem of string * Sxml.Tree.t
  | Cand_text of Sxml.Tree.t * string

let position = function
  | Cand_elem (_, n) | Cand_text (n, _) -> n.Sxml.Tree.id

(* Candidates gathered newest-first, in document order and stable
   among equal positions; the usual already-ordered case costs only
   the reversal. *)
let in_document_order rev =
  let rec descending = function
    | a :: (b :: _ as rest) -> position a >= position b && descending rest
    | [ _ ] | [] -> true
  in
  let ordered = List.rev rev in
  if descending rev then ordered
  else
    List.stable_sort (fun a b -> Int.compare (position a) (position b)) ordered

let materialize ?env ?access ~spec ~view doc =
  let access =
    match access with Some a -> a | None -> Access.compute ?env spec doc
  in
  let is_accessible (n : Sxml.Tree.t) = Access.mem access n.id in
  let attrs_of source =
    Access.accessible_attributes ?env ~access spec doc source
  in
  let dtd = View.dtd view in
  (* What building an element of a view type needs — its production,
     the σ and dummy flag of each label it mentions, whether it admits
     text — worked out once per type instead of once per element. *)
  let rules = Hashtbl.create 16 in
  let rule vlabel =
    match Hashtbl.find_opt rules vlabel with
    | Some r -> r
    | None ->
      let prod = Sdtd.Dtd.production dtd vlabel in
      let r =
        ( prod,
          List.map
            (fun b ->
              (b, View.sigma_exn view ~parent:vlabel ~child:b,
               View.is_dummy view b))
            (Sdtd.Regex.labels prod),
          Sdtd.Regex.mentions_str prod )
      in
      Hashtbl.replace rules vlabel r;
      r
  in
  let rec build vlabel (source : Sxml.Tree.t) =
    let prod, extract, with_text = rule vlabel in
    (* Candidate element children: for each label of the production,
       extract via σ; a node may be produced under several labels (it
       then appears once per label, ordered by document position). *)
    let tagged_rev =
      List.fold_left
        (fun acc (b, q, dummy) ->
          List.fold_left
            (fun acc (n : Sxml.Tree.t) ->
              if dummy || is_accessible n then Cand_elem (b, n) :: acc
              else acc)
            acc
            (Sxpath.Eval.run (Sxpath.Eval.Ctx.make ?env ~root:source ()) q))
        [] extract
    in
    let tagged_rev =
      if with_text then
        List.fold_left
          (fun acc (c : Sxml.Tree.t) ->
            match c.desc with
            | Sxml.Tree.Text s when is_accessible c -> Cand_text (c, s) :: acc
            | Sxml.Tree.Text _ | Sxml.Tree.Element _ -> acc)
          tagged_rev (Sxml.Tree.children source)
      else tagged_rev
    in
    let ordered = in_document_order tagged_rev in
    let word =
      List.map
        (function
          | Cand_elem (b, _) -> b
          | Cand_text _ -> Sdtd.Regex.pcdata)
        ordered
    in
    if not (Sdtd.Regex.matches prod word) then
      abort "children [%s] of <%s> (source node %d) do not match %s"
        (String.concat "; " word) vlabel source.Sxml.Tree.id
        (Sdtd.Regex.to_string prod);
    let vchildren =
      List.map
        (function
          | Cand_elem (b, n) -> Velem (build b n)
          | Cand_text (_, s) -> Vtext s)
        ordered
    in
    { vlabel; source; vattrs = attrs_of source; vchildren }
  in
  let root_label = View.root view in
  (match Sxml.Tree.tag doc with
  | Some tag when String.equal tag root_label -> ()
  | Some tag ->
    abort "document root <%s> does not match the view root <%s>" tag
      root_label
  | None -> abort "document root is a text node");
  build root_label doc

let to_tree vtree =
  let rec spec { vlabel; vattrs; vchildren; _ } =
    Sxml.Tree.elem vlabel ~attrs:vattrs
      (List.map
         (function Velem v -> spec v | Vtext s -> Sxml.Tree.text s)
         vchildren)
  in
  Sxml.Tree.of_spec (spec vtree)

let to_tree_with_sources vtree =
  let tree = to_tree vtree in
  (* [to_tree] numbers nodes in preorder, and the vtree visited in the
     same preorder yields matching elements; walk both in lockstep. *)
  let table = Hashtbl.create 64 in
  let rec walk (v : vtree) (n : Sxml.Tree.t) =
    Hashtbl.replace table n.Sxml.Tree.id v.source.Sxml.Tree.id;
    let elems =
      List.filter_map (function Velem c -> Some c | Vtext _ -> None)
        v.vchildren
    in
    List.iter2 walk elems (Sxml.Tree.element_children n)
  in
  walk vtree tree;
  (tree, fun id -> Hashtbl.find_opt table id)

let element_sources vtree =
  let rec go acc v =
    let acc = (v.vlabel, v.source.Sxml.Tree.id) :: acc in
    List.fold_left
      (fun acc -> function Velem c -> go acc c | Vtext _ -> acc)
      acc v.vchildren
  in
  List.rev (go [] vtree)

let size vtree =
  let rec go v =
    1
    + List.fold_left
        (fun acc -> function Velem c -> acc + go c | Vtext _ -> acc + 1)
        0 v.vchildren
  in
  go vtree
