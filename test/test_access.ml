(* Access specifications and node accessibility: inheritance,
   overriding, conditional annotations, ancestor-qualifier blocking,
   and the naive baseline's annotation pass. *)

module R = Sdtd.Regex
module Spec = Secview.Spec
module Access = Secview.Access

let e l = R.Elt l

let dtd =
  Sdtd.Dtd.create ~root:"r"
    [
      ("r", R.Seq [ e "a"; e "b" ]);
      ("a", R.Seq [ e "x"; e "y" ]);
      ("b", R.Seq [ e "x"; e "y" ]);
      ("x", R.Str);
      ("y", R.Str);
    ]

let doc () =
  Sxml.Tree.(
    of_spec
      (elem "r"
         [
           elem "a" [ elem "x" [ text "ax" ]; elem "y" [ text "ay" ] ];
           elem "b" [ elem "x" [ text "bx" ]; elem "y" [ text "by" ] ];
         ]))

let tags_of_accessible spec doc =
  let access = Access.compute spec doc in
  List.filter_map
    (fun n ->
      if Access.mem access n.Sxml.Tree.id then Sxml.Tree.tag n else None)
    (Sxml.Tree.descendants_or_self doc)

let test_all_inherit_root_yes () =
  let spec = Spec.make dtd [] in
  let d = doc () in
  let access = Access.compute spec d in
  Alcotest.(check int)
    "everything accessible" (Sxml.Tree.size d)
    (Sxml.Tree.fold
       (fun k n -> if Access.mem access n.Sxml.Tree.id then k + 1 else k)
       0 d)

let test_no_blocks_subtree_by_inheritance () =
  let spec = Spec.make dtd [ (("r", "b"), Spec.No) ] in
  Alcotest.(check (list string)) "b subtree gone"
    [ "r"; "a"; "x"; "y" ]
    (tags_of_accessible spec (doc ()))

let test_yes_overrides_inaccessible_parent () =
  let spec =
    Spec.make dtd [ (("r", "b"), Spec.No); (("b", "y"), Spec.Yes) ]
  in
  Alcotest.(check (list string)) "y under b re-exposed"
    [ "r"; "a"; "x"; "y"; "y" ]
    (tags_of_accessible spec (doc ()))

let test_conditional_annotation () =
  let q = Sxpath.Parse.qual_of_string "x = \"ax\"" in
  let spec =
    Spec.make dtd [ (("r", "a"), Spec.Cond q); (("r", "b"), Spec.Cond q) ]
  in
  (* a satisfies [x = "ax"], b does not. *)
  Alcotest.(check (list string)) "only a kept"
    [ "r"; "a"; "x"; "y" ]
    (tags_of_accessible spec (doc ()))

let test_false_ancestor_qualifier_blocks_explicit_yes () =
  let q = Sxpath.Parse.qual_of_string "x = \"nope\"" in
  let spec =
    Spec.make dtd [ (("r", "b"), Spec.Cond q); (("b", "y"), Spec.Yes) ]
  in
  (* y under b is explicitly Y, but the ancestor qualifier on b is
     false, which blocks the whole subtree (Section 3.2). *)
  Alcotest.(check (list string)) "b and its explicit-Y child blocked"
    [ "r"; "a"; "x"; "y" ]
    (tags_of_accessible spec (doc ()))

let test_pcdata_annotation () =
  let spec = Spec.make dtd [ (("x", R.pcdata), Spec.No) ] in
  let access = Access.compute spec (doc ()) in
  let accessible_texts =
    List.filter
      (fun n -> Sxml.Tree.is_text n && Access.mem access n.Sxml.Tree.id)
      (Sxml.Tree.descendants_or_self (doc ()))
  in
  Alcotest.(check int) "only y texts remain" 2 (List.length accessible_texts)

let test_env_variable_condition () =
  let q = Sxpath.Parse.qual_of_string "x = $which" in
  let spec = Spec.make dtd [ (("r", "a"), Spec.Cond q) ] in
  let env v = if v = "which" then Some "ax" else None in
  let access = Access.compute ~env spec (doc ()) in
  Alcotest.(check bool) "a accessible under binding" true
    (List.exists
       (fun n ->
         Sxml.Tree.tag n = Some "a" && Access.mem access n.Sxml.Tree.id)
       (Sxml.Tree.descendants_or_self (doc ())))

let test_make_rejects_non_edges () =
  Alcotest.(check bool) "not an edge" true
    (match Spec.make dtd [ (("r", "x"), Spec.No) ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unknown type" true
    (match Spec.make dtd [ (("zz", "x"), Spec.No) ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate annotation" true
    (match Spec.make dtd [ (("r", "a"), Spec.No); (("r", "a"), Spec.Yes) ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "conditional PCDATA rejected" true
    (match
       Spec.make dtd
         [ (("x", R.pcdata), Spec.Cond (Sxpath.Parse.qual_of_string "y")) ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_spec_variables () =
  let q = Sxpath.Parse.qual_of_string "x = $w and y = $v" in
  let spec = Spec.make dtd [ (("r", "a"), Spec.Cond q) ] in
  Alcotest.(check (list string)) "variables collected" [ "w"; "v" ]
    (Spec.variables spec)

let test_annotate () =
  let spec = Spec.make dtd [ (("r", "b"), Spec.No) ] in
  let annotated = Access.annotate spec (doc ()) in
  let flag tag =
    let n =
      List.hd
        (Sxml.Tree.find_all (fun n -> Sxml.Tree.tag n = Some tag) annotated)
    in
    Sxml.Tree.attr n "accessibility"
  in
  Alcotest.(check (option string)) "a flagged 1" (Some "1") (flag "a");
  Alcotest.(check (option string)) "b flagged 0" (Some "0") (flag "b");
  Alcotest.(check int) "ids preserved"
    (Sxml.Tree.size (doc ()))
    (Sxml.Tree.size annotated)

let test_accessible_elements_ordered () =
  let spec = Spec.make dtd [ (("r", "a"), Spec.No) ] in
  let elems = Access.accessible_elements spec (doc ()) in
  let ids = List.map (fun n -> n.Sxml.Tree.id) elems in
  Alcotest.(check (list int)) "document order" (List.sort compare ids) ids

(* The bitmap against the balanced-set pass it replaced, on every
   node of generated hospital documents under the ward-qualified nurse
   policy, for a ward that qualifies and one that does not. *)
let test_bitmap_matches_reference () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  List.iter
    (fun (seed, ward) ->
      let doc = Workload.Hospital.generated_document ~seed ~scale:2 () in
      let env = Workload.Hospital.nurse_env ward in
      let access = Access.compute ~env spec doc in
      let reference = Reference.accessible_set ~env spec doc in
      Sxml.Tree.iter
        (fun n ->
          let id = n.Sxml.Tree.id in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d ward %s node %d" seed ward id)
            (Reference.IntSet.mem id reference)
            (Access.mem access id))
        doc)
    [ (1, "6"); (2, "6"); (3, "7"); (4, "99") ]

let () =
  Alcotest.run "access"
    [
      ( "semantics",
        [
          Alcotest.test_case "root-yes inheritance" `Quick
            test_all_inherit_root_yes;
          Alcotest.test_case "N blocks by inheritance" `Quick
            test_no_blocks_subtree_by_inheritance;
          Alcotest.test_case "Y overrides inaccessible parent" `Quick
            test_yes_overrides_inaccessible_parent;
          Alcotest.test_case "conditional annotations" `Quick
            test_conditional_annotation;
          Alcotest.test_case "false ancestor qualifier blocks" `Quick
            test_false_ancestor_qualifier_blocks_explicit_yes;
          Alcotest.test_case "PCDATA annotations" `Quick test_pcdata_annotation;
          Alcotest.test_case "environment variables" `Quick
            test_env_variable_condition;
          Alcotest.test_case "ordered output" `Quick
            test_accessible_elements_ordered;
          Alcotest.test_case "bitmap matches reference" `Quick
            test_bitmap_matches_reference;
        ] );
      ( "specification",
        [
          Alcotest.test_case "validation" `Quick test_make_rejects_non_edges;
          Alcotest.test_case "variables" `Quick test_spec_variables;
        ] );
      ( "naive-annotation",
        [ Alcotest.test_case "annotate" `Quick test_annotate ] );
    ]
