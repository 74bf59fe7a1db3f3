(* The update subsystem: language round-trips, grant semantics
   (default deny, per-op grants), reject-on-inaccessible-target
   atomicity, warm caches across writes, snapshot isolation under a
   concurrent writer, the write path against its set-based reference,
   and its allocation. *)

module Pipeline = Secview.Pipeline
module Catalog = Secview.Catalog
module Spec = Secview.Spec
module Engine = Supdate.Engine
module Parse = Supdate.Parse

let parse = Sxpath.Parse.of_string

let eval p doc =
  Sxpath.Eval.run (Sxpath.Eval.Ctx.make ~root:doc ()) p

let dtd = Workload.Hospital.dtd

(* A group that sees the whole document (no annotations: everything
   inherits the root's Y), with the given write grants. *)
let open_spec grants = Spec.make ~write:grants dtd []

(* The nurse policy of [Workload.Hospital], plus write grants — the
   workload's own [nurse_spec] is read-only by design. *)
let nurse_spec grants =
  Spec.make ~write:grants dtd
    [
      ( ("hospital", "dept"),
        Spec.Cond (Sxpath.Parse.qual_of_string "*/patient/wardNo = $wardNo") );
      (("dept", "clinicalTrial"), Spec.No);
      (("clinicalTrial", "patientInfo"), Spec.Yes);
      (("treatment", "trial"), Spec.No);
      (("treatment", "regular"), Spec.No);
      (("trial", "bill"), Spec.Yes);
      (("regular", "bill"), Spec.Yes);
      (("regular", "medication"), Spec.Yes);
    ]

let setup spec =
  let catalog = Catalog.create () in
  let entry =
    Catalog.add catalog ~name:"doc" (Workload.Hospital.sample_document ())
  in
  let svc = Pipeline.Service.create ~catalog dtd ~groups:[ ("g", spec) ] in
  (svc, entry)

(* Everything a rejected update must leave bit-for-bit unchanged. *)
let fingerprint svc sess entry =
  let s : Pipeline.stats = Pipeline.Session.stats_of sess ~group:"g" in
  ( Catalog.version entry,
    Pipeline.Service.generation svc,
    Sxml.Print.to_string (Catalog.doc entry),
    (s.hits, s.misses, s.plan_hits, s.plan_misses) )

let check_rejected ?env ~code svc entry text =
  let sess = Pipeline.Session.create svc in
  let before = fingerprint svc sess entry in
  let pinned = Catalog.pin entry in
  (match Engine.apply_text svc ~group:"g" ?env ~entry text with
  | Ok _ -> Alcotest.failf "update %S was admitted" text
  | Error e ->
      Alcotest.(check string) "error code" code (Secview.Error.to_code e));
  let after = fingerprint svc sess entry in
  Alcotest.(check bool) "reject leaves everything untouched" true
    (before = after);
  let pinned' = Catalog.pin entry in
  Alcotest.(check int) "current snapshot version unchanged"
    (Catalog.snapshot_version pinned)
    (Catalog.snapshot_version pinned');
  Alcotest.(check bool) "current snapshot tree physically unchanged" true
    (Catalog.snapshot_doc pinned == Catalog.snapshot_doc pinned')

let count_patients doc = List.length (eval (parse "//patient") doc)

(* --- language ------------------------------------------------------ *)

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let u = Parse.of_string s in
      let printed = Parse.to_string u in
      Alcotest.(check string)
        (Printf.sprintf "round-trip of %S" s)
        printed
        (Parse.to_string (Parse.of_string printed)))
    [
      "insert into //patientInfo <patient><name>Zed</name></patient>";
      "insert before //patient[name = \"Bob\"] <patient><name>A</name></patient>";
      "insert after //dept/patientInfo/patient <note>x</note>";
      "delete //patient[name = \"Bob\"]";
      "replace //patient[name = \"Carol\"]/treatment with <treatment><trial><bill>1</bill></trial></treatment>";
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Parse.of_string_result s with
      | Ok _ -> Alcotest.failf "parsed malformed update %S" s
      | Error _ -> ())
    [
      "";
      "delete";
      "insert //x <a/>";
      "insert sideways //x <a/>";
      "insert into //x";
      "insert into //x not-xml";
      "replace //x <a/>";
      "replace //x with";
      "frobnicate //x";
    ]

(* --- grants -------------------------------------------------------- *)

let test_default_deny () =
  (* A spec without grants is read-only: every operation is denied,
     even for a group that can see the whole document. *)
  let svc, entry = setup (open_spec []) in
  List.iter
    (fun text -> check_rejected ~code:"update_denied" svc entry text)
    [
      "delete //patient[name = \"Bob\"]";
      "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>";
      "replace //patient[name = \"Bob\"]/treatment/regular/medication with <medication>zzz</medication>";
    ]

let test_grants_are_per_op () =
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  (* delete is granted on the edge, insert and replace are not *)
  check_rejected ~code:"update_denied" svc entry
    "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>";
  check_rejected ~code:"update_denied" svc entry
    "replace //patient[name = \"Bob\"] with <patient><name>Rob</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>";
  match
    Engine.apply_text svc ~group:"g" ~entry "delete //patient[name = \"Bob\"]"
  with
  | Error e -> Alcotest.failf "granted delete rejected: %s" (Secview.Error.to_code e)
  | Ok r ->
      Alcotest.(check int) "one target" 1 r.Engine.r_targets;
      Alcotest.(check string) "op" "delete" r.Engine.r_op

let test_ungranted_edge_denied () =
  (* The grant names one edge; a target attached elsewhere stays
     unwritable. *)
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  check_rejected ~code:"update_denied" svc entry "delete //staff[nurse/name = \"Nina\"]"

(* --- accepted updates --------------------------------------------- *)

let test_accepted_delete () =
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  let pinned = Catalog.pin entry in
  let v0 = Catalog.version entry in
  let g0 = Pipeline.Service.generation svc in
  match
    Engine.apply_text svc ~group:"g" ~entry "delete //patient[name = \"Bob\"]"
  with
  | Error e -> Alcotest.failf "delete rejected: %s" (Secview.Error.to_code e)
  | Ok r ->
      Alcotest.(check int) "old version" v0 r.Engine.r_old_version;
      Alcotest.(check bool) "version bumped" true (r.Engine.r_new_version > v0);
      Alcotest.(check int) "catalog holds the new version"
        r.Engine.r_new_version (Catalog.version entry);
      Alcotest.(check int) "generation bumped once" (g0 + 1)
        (Pipeline.Service.generation svc);
      Alcotest.(check int) "one patient fewer" 4
        (count_patients (Catalog.doc entry));
      (* the pinned reader still sees Bob: snapshots are immutable *)
      Alcotest.(check int) "pinned snapshot untouched" 5
        (count_patients (Catalog.snapshot_doc pinned));
      Alcotest.(check bool) "Bob gone from the view" true
        (eval (parse "//patient[name = \"Bob\"]") (Catalog.doc entry) = [])

let test_accepted_insert_and_replace () =
  let svc, entry =
    setup
      (open_spec [ (("patientInfo", "patient"), [ Spec.Insert; Spec.Replace ]) ])
  in
  (match
     Engine.apply_text svc ~group:"g" ~entry
       "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><regular><bill>7</bill><medication>ibu</medication></regular></treatment></patient>"
   with
  | Error e -> Alcotest.failf "insert rejected: %s" (Secview.Error.to_code e)
  | Ok r ->
      Alcotest.(check string) "op" "insert" r.Engine.r_op;
      Alcotest.(check int) "six patients" 6 (count_patients (Catalog.doc entry)));
  match
    Engine.apply_text svc ~group:"g" ~entry
      "replace //patient[name = \"Zed\"] with <patient><name>Zed</name><wardNo>6</wardNo><treatment><regular><bill>7</bill><medication>asa</medication></regular></treatment></patient>"
  with
  | Error e -> Alcotest.failf "replace rejected: %s" (Secview.Error.to_code e)
  | Ok _ ->
      Alcotest.(check bool) "replacement visible" true
        (eval (parse "//patient[name = \"Zed\"]//medication[. = \"asa\"]")
           (Catalog.doc entry)
        <> [])

let test_replace_medication_needs_regular_grant () =
  (* the medication edge is (regular, medication), not the patient
     edge the other tests grant *)
  let svc, entry =
    setup (open_spec [ (("regular", "medication"), [ Spec.Replace ]) ])
  in
  match
    Engine.apply_text svc ~group:"g" ~entry
      "replace //patient[name = \"Carol\"]/treatment/regular/medication with <medication>new</medication>"
  with
  | Error e -> Alcotest.failf "rejected: %s" (Secview.Error.to_code e)
  | Ok r -> Alcotest.(check int) "one target" 1 r.Engine.r_targets

(* --- DTD conformance and target validity --------------------------- *)

let test_dtd_violation_rejected () =
  let svc, entry =
    setup (open_spec [ (("patient", "name"), Spec.all_write_ops) ])
  in
  (* a second <name> breaks patient -> (name, wardNo, treatment) *)
  check_rejected ~code:"invalid_update" svc entry
    "insert into //patient[name = \"Bob\"] <name>Robert</name>";
  (* deleting a mandatory child breaks the production too *)
  check_rejected ~code:"invalid_update" svc entry
    "delete //patient[name = \"Bob\"]/name"

let test_empty_target_rejected () =
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  check_rejected ~code:"invalid_update" svc entry
    "delete //patient[name = \"Nobody\"]"

let test_stored_view_group_denied () =
  (* A stored-view group carries no policy, hence no grants: every
     update is rejected outright. *)
  let source, _ = setup (open_spec []) in
  let view = Pipeline.Service.view source ~group:"g" in
  let catalog = Catalog.create () in
  let entry =
    Catalog.add catalog ~name:"doc" (Workload.Hospital.sample_document ())
  in
  let svc =
    Pipeline.Service.create_with_views ~catalog dtd ~groups:[ ("g", view) ]
  in
  check_rejected ~code:"update_denied" svc entry
    "delete //patient[name = \"Bob\"]"

(* --- policy semantics over a restricted view ----------------------- *)

let env = Workload.Hospital.nurse_env "6"

let test_nurse_subtree_with_hidden_nodes () =
  (* Every ward-6 patient subtree contains a hidden <trial>/<regular>
     element; deleting one would destroy data the nurse cannot see. *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  check_rejected ~env ~code:"update_denied" svc entry
    "delete //patient[name = \"Bob\"]"

let test_nurse_cannot_write_unreadable_content () =
  (* An inserted patient's treatment is hidden from the nurse in the
     resulting document — the group may not write what it could not
     read back. *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), [ Spec.Insert ]) ])
  in
  check_rejected ~env ~code:"update_denied" svc entry
    "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><regular><bill>7</bill><medication>ibu</medication></regular></treatment></patient>"

let test_nurse_can_update_visible_leaf () =
  (* bill is visible and its edge granted: the write goes through. *)
  let svc, entry =
    setup (nurse_spec [ (("regular", "bill"), [ Spec.Replace ]) ])
  in
  match
    Engine.apply_text svc ~group:"g" ~env ~entry
      "replace //patient[name = \"Carol\"]//bill with <bill>85</bill>"
  with
  | Error e -> Alcotest.failf "rejected: %s" (Secview.Error.to_code e)
  | Ok _ ->
      Alcotest.(check bool) "new bill visible" true
        (eval (parse "//patient[name = \"Carol\"]//bill[. = \"85\"]")
           (Catalog.doc entry)
        <> [])

(* Only the ward qualifier, everything else inherited: every node of a
   qualifying dept is visible, so admission comes down to whether the
   edit preserves the accessibility of what it does not touch. *)
let ward_cond_spec grants =
  Spec.make ~write:grants dtd
    [
      ( ("hospital", "dept"),
        Spec.Cond (Sxpath.Parse.qual_of_string "*/patient/wardNo = $wardNo") );
    ]

let test_qualifier_flip_denied () =
  let svc, entry =
    setup (ward_cond_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  (* deleting one of two qualifying patients flips no qualifier: the
     dept still qualifies through Carol, so the write is admitted *)
  (match
     Engine.apply_text svc ~group:"g" ~env ~entry
       "delete //patient[name = \"Bob\"]"
   with
  | Error e ->
    Alcotest.failf "qualifier-preserving delete rejected: %s"
      (Secview.Error.to_code e)
  | Ok _ -> ());
  (* deleting every remaining ward-6 patient falsifies the dept
     qualifier: staff and trial data the update never touched would
     flip invisible — WITH CHECK OPTION denies the edit atomically *)
  check_rejected ~env ~code:"update_denied" svc entry
    "delete //patient[wardNo = \"6\"]"

let test_denial_text_is_sanitized () =
  (* client-facing denial text must not name node ids (dense preorder
     positions map out hidden subtrees); the id-bearing reason goes to
     the audit callback only *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  let detail = ref None in
  match
    Engine.apply_text svc ~group:"g" ~env
      ~audit:(fun d -> detail := Some d)
      ~entry "delete //patient[name = \"Bob\"]"
  with
  | Ok _ -> Alcotest.fail "hidden-subtree delete admitted"
  | Error e ->
    let has_digit s = String.exists (fun c -> c >= '0' && c <= '9') s in
    Alcotest.(check bool) "no node id in the client text" false
      (has_digit (Secview.Error.to_string e));
    (match !detail with
    | None -> Alcotest.fail "denial produced no audit detail"
    | Some d ->
      Alcotest.(check bool) "audit detail names the node id" true
        (has_digit d))

let test_dtd_violation_text_is_sanitized () =
  (* Carol's <treatment> is visible to the nurse but its only child,
     <regular>, is hidden.  A second <regular> breaks the choice
     treatment -> (trial | regular); the violation names the
     treatment's preorder id and its hidden children, so only the
     audit callback may see it. *)
  let svc, entry =
    setup (nurse_spec [ (("treatment", "regular"), [ Spec.Insert ]) ])
  in
  let detail = ref None in
  match
    Engine.apply_text svc ~group:"g" ~env
      ~audit:(fun d -> detail := Some d)
      ~entry
      "insert into //patient[name = \"Carol\"]/treatment \
       <regular><bill>1</bill><medication>x</medication></regular>"
  with
  | Ok _ -> Alcotest.fail "DTD-violating insert admitted"
  | Error e ->
    let text = Secview.Error.to_string e in
    Alcotest.(check string) "error code" "invalid_update"
      (Secview.Error.to_code e);
    let has_digit s = String.exists (fun c -> c >= '0' && c <= '9') s in
    let contains hay needle =
      let n = String.length needle in
      let rec at i =
        i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
      in
      at 0
    in
    Alcotest.(check bool) "no node id in the client text" false
      (has_digit text);
    List.iter
      (fun hidden ->
        Alcotest.(check bool)
          (Printf.sprintf "no hidden label %s in the client text" hidden)
          false (contains text hidden))
      [ "regular"; "trial" ];
    (match !detail with
    | None -> Alcotest.fail "violation produced no audit detail"
    | Some d ->
      Alcotest.(check bool) "audit detail holds the violation" true
        (contains d "<treatment>: children [regular; regular]"
        && has_digit d))

let test_receipt_digest_is_view_scoped () =
  (* the receipt digest is of the group's view of the result — a raw
     document digest would be an equality oracle on hidden regions *)
  let svc, entry =
    setup (nurse_spec [ (("regular", "bill"), [ Spec.Replace ]) ])
  in
  match
    Engine.apply_text svc ~group:"g" ~env ~entry
      "replace //patient[name = \"Carol\"]//bill with <bill>85</bill>"
  with
  | Error e -> Alcotest.failf "rejected: %s" (Secview.Error.to_code e)
  | Ok rc ->
    let full =
      Digest.to_hex (Digest.string (Sxml.Print.to_string rc.Engine.r_doc))
    in
    Alcotest.(check int) "md5 hex" 32 (String.length rc.Engine.r_view_digest);
    Alcotest.(check bool) "not the raw document's digest" true
      (rc.Engine.r_view_digest <> full)

let test_text_content_typed_error () =
  (* a library caller handing Check bare-text content gets a typed
     Invalid_update, not an assertion failure *)
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  let sess = Pipeline.Session.create svc in
  List.iter
    (fun u ->
      let before = fingerprint svc sess entry in
      (match Engine.apply svc ~group:"g" ~entry u with
      | Ok _ -> Alcotest.fail "bare-text content admitted"
      | Error e ->
        Alcotest.(check string) "typed error" "invalid_update"
          (Secview.Error.to_code e));
      Alcotest.(check bool) "reject leaves everything untouched" true
        (before = fingerprint svc sess entry))
    [
      Supdate.Ast.Insert
        {
          pos = Supdate.Ast.Into;
          target = parse "//patientInfo";
          content = Sxml.Tree.T "boom";
        };
      Supdate.Ast.Replace
        {
          target = parse "//patient[name = \"Bob\"]";
          content = Sxml.Tree.T "boom";
        };
    ]

let test_nurse_other_ward_out_of_view () =
  (* Dave is in ward 7: his subtree is simply not in the ward-6 view,
     so the target set is empty — invalid, not silently zero. *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  check_rejected ~env ~code:"invalid_update" svc entry
    "delete //patient[name = \"Dave\"]"

(* --- caches across writes ------------------------------------------ *)

let test_writes_keep_translations_warm () =
  (* A cached translation depends on a document only through the
     unfolding height in its key: a write bumps the generation but
     evicts nothing, and the warm entry answers the new version exactly
     as a fresh session does. *)
  let catalog = Catalog.create () in
  let a = Catalog.add catalog ~name:"a" (Workload.Hospital.sample_document ()) in
  let b = Catalog.add catalog ~name:"b" (Workload.Hospital.sample_document ()) in
  let svc =
    Pipeline.Service.create ~catalog dtd
      ~groups:
        [ ("g", open_spec [ (("patientInfo", "patient"), [ Spec.Insert ]) ]) ]
  in
  let pipe = Pipeline.Session.create svc in
  let qa = parse "//patient/name" and qb = parse "//staff" in
  let answer sess q e =
    List.map (fun n -> Sxml.Print.to_string n)
      (Pipeline.Session.answer_exn sess ~group:"g" q (Catalog.doc e))
  in
  let run q e = ignore (answer pipe q e) in
  run qa a;
  run qa a;
  run qb b;
  run qb b;
  let s0 : Pipeline.stats = Pipeline.Session.stats_of pipe ~group:"g" in
  Alcotest.(check (pair int int)) "warm: one miss then one hit per doc" (2, 2)
    (s0.hits, s0.misses);
  let g0 = Pipeline.Service.generation svc in
  (match
     Engine.apply_text svc ~group:"g" ~entry:a
       "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>"
   with
  | Error e -> Alcotest.failf "insert rejected: %s" (Secview.Error.to_code e)
  | Ok _ -> ());
  Alcotest.(check int) "generation bumped" (g0 + 1)
    (Pipeline.Service.generation svc);
  let warm = answer pipe qa a in
  run qb b;
  let s1 : Pipeline.stats = Pipeline.Session.stats_of pipe ~group:"g" in
  Alcotest.(check (pair int int)) "both entries hit after the write"
    (s0.hits + 2, s0.misses) (s1.hits, s1.misses);
  Alcotest.(check (list string)) "warm answer = a fresh session's"
    (answer (Pipeline.Session.create svc) qa a)
    warm;
  Alcotest.(check bool) "the new version shows the write" true
    (List.mem "<name>Zed</name>" warm)

(* --- snapshot isolation under concurrency -------------------------- *)

let test_snapshot_isolation_hammer () =
  let writes = 20 and readers = 4 and reads = 60 in
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), [ Spec.Insert ]) ])
  in
  let v0 = Catalog.version entry in
  let q = parse "//patient" in
  let failures = ref [] in
  let flock = Mutex.create () in
  let fail msg = Mutex.protect flock (fun () -> failures := msg :: !failures) in
  let writer () =
    for i = 1 to writes do
      let text =
        Printf.sprintf
          "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>p%d</name><wardNo>6</wardNo><treatment><trial><bill>%d</bill></trial></treatment></patient>"
          i i
      in
      match Engine.apply_text svc ~group:"g" ~entry text with
      | Ok _ -> Thread.yield ()
      | Error e -> fail ("write rejected: " ^ Secview.Error.to_code e)
    done
  in
  let reader () =
    let pipe = Pipeline.Session.of_slot (Pipeline.Service.slot svc) in
    let last_version = ref 0 in
    for _ = 1 to reads do
      let snap = Catalog.pin entry in
      let v = Catalog.snapshot_version snap in
      let doc = Catalog.snapshot_doc snap in
      if v < !last_version then fail "snapshot version went backwards";
      last_version := v;
      let c1 = count_patients doc in
      Thread.yield ();
      (* the pinned tree must be internally consistent however many
         writes land after the pin: same count, same serialization,
         same answer through the full pipeline *)
      let c2 = count_patients (Catalog.snapshot_doc snap) in
      if c1 <> c2 then fail "torn read: counts differ within one snapshot";
      if c1 < 5 || c1 > 5 + writes then
        fail (Printf.sprintf "impossible patient count %d" c1);
      let via_pipe =
        List.length (Pipeline.Session.answer_exn pipe ~group:"g" q doc)
      in
      if via_pipe <> c1 then fail "pipeline answer disagrees with snapshot"
    done
  in
  let threads =
    Thread.create writer ()
    :: List.init readers (fun _ -> Thread.create reader ())
  in
  List.iter Thread.join threads;
  (match !failures with
  | [] -> ()
  | msgs -> Alcotest.failf "hammer failures: %s" (String.concat "; " msgs));
  Alcotest.(check int) "all writes landed" (5 + writes)
    (count_patients (Catalog.doc entry));
  Alcotest.(check bool) "version advanced once per write" true
    (Catalog.version entry >= v0 + writes)

(* --- the write path against its set-based reference --------------- *)

(* Nurse-style policies: the paper's nurse policy, the ward qualifier
   alone, a per-patient ward qualifier that hides treatments, and the
   ward qualifier hiding the medication text, the last node of every
   regular patient. *)
let gen_policy =
  let open QCheck2.Gen in
  let qual = Sxpath.Parse.qual_of_string in
  let edges =
    [
      ("patientInfo", "patient"); ("regular", "bill"); ("trial", "bill");
      ("regular", "medication"); ("patient", "name"); ("staffInfo", "staff");
      ("hospital", "dept"); ("treatment", "regular");
    ]
  in
  let* grants =
    flatten_l
      (List.map
         (fun edge ->
           map
             (fun ops -> (edge, ops))
             (oneofl
                [ []; [ Spec.Replace ]; [ Spec.Insert; Spec.Delete ];
                  Spec.all_write_ops; Spec.all_write_ops ]))
         edges)
  in
  let grants = List.filter (fun (_, ops) -> ops <> []) grants in
  oneofl
    [
      ("nurse", nurse_spec grants);
      ("ward", ward_cond_spec grants);
      ( "patient-ward",
        Spec.make ~write:grants dtd
          [
            (("patientInfo", "patient"), Spec.Cond (qual "wardNo = $wardNo"));
            (("treatment", "trial"), Spec.No);
            (("trial", "bill"), Spec.Yes);
          ] );
      ( "hidden-meds",
        Spec.make ~write:grants dtd
          [
            ( ("hospital", "dept"),
              Spec.Cond (qual "*/patient/wardNo = $wardNo") );
            (("medication", Sdtd.Regex.pcdata), Spec.No);
          ] );
    ]

let gen_update_text ward =
  let open QCheck2.Gen in
  let patient =
    Printf.sprintf
      "<patient><name>Z</name><wardNo>%s</wardNo><treatment><regular><bill>1</bill><medication>x</medication></regular></treatment></patient>"
      ward
  in
  let target =
    oneofl
      [
        "//patient"; "//patient/name"; "//patient//bill"; "//patient/treatment";
        "//patientInfo"; "//staff"; "//dept"; "//bill"; "//medication";
        Printf.sprintf "//patient[wardNo = \"%s\"]" ward;
        Printf.sprintf "//patient[wardNo = \"%s\"]//bill" ward;
      ]
  in
  let content =
    oneofl
      [
        "<bill>7</bill>";
        "<medication>m</medication>";
        "<name>Q</name>";
        patient;
        Printf.sprintf
          "<patient><name>Y</name><wardNo>%s</wardNo><treatment><trial><bill>2</bill></trial></treatment></patient>"
          ward;
        Printf.sprintf "<staff><nurse><name>N</name><wardNo>%s</wardNo></nurse></staff>"
          ward;
      ]
  in
  let random =
    let* target = target and* content = content in
    oneofl
      [
        "delete " ^ target;
        Printf.sprintf "replace %s with %s" target content;
        Printf.sprintf "insert into %s %s" target content;
        Printf.sprintf "insert before %s %s" target content;
        Printf.sprintf "insert after %s %s" target content;
      ]
  in
  let this_ward = Printf.sprintf "//patient[wardNo = \"%s\"]" ward in
  (* updates a policy can admit: well-typed content on granted edges *)
  let plausible =
    oneofl
      [
        "replace //patient//bill with <bill>7</bill>";
        Printf.sprintf "replace %s//bill with <bill>8</bill>" this_ward;
        "replace //medication with <medication>m</medication>";
        "replace //patient/name with <name>Q</name>";
        "delete " ^ this_ward;
        "delete //staff";
        "insert into //patientInfo " ^ patient;
        Printf.sprintf "insert before %s %s" this_ward patient;
        Printf.sprintf "insert after //patient %s" patient;
        Printf.sprintf "replace %s with %s" this_ward patient;
        Printf.sprintf
          "insert into //staffInfo <staff><nurse><name>N</name><wardNo>%s</wardNo></nurse></staff>"
          ward;
      ]
  in
  frequency [ (3, plausible); (1, random) ]

(* Wards are drawn mostly from the document's own regular patients,
   and the written ward is often the bound one, so the ward qualifiers
   both hold and fail, and writes can flip them. *)
let gen_write_case =
  let open QCheck2.Gen in
  let* seed = int_range 1 1000 and* scale = int_range 2 4 in
  let doc = Workload.Hospital.generated_document ~seed ~scale () in
  let wards =
    List.map Sxml.Tree.string_value
      (eval (parse "//dept/patientInfo/patient/wardNo") doc)
  in
  let ward = frequency [ (4, oneofl wards); (1, map string_of_int (int_bound 9)) ] in
  let* bound = ward in
  let* written = frequency [ (1, return bound); (1, ward) ] in
  let* policy = gen_policy and* text = gen_update_text written in
  return (seed, scale, bound, policy, text)

let print_write_case (seed, scale, ward, (policy, _), text) =
  Printf.sprintf "document seed %d scale %d, $wardNo = %s, policy %s: %s" seed
    scale ward policy text

type write_outcome =
  | Admitted of string * int * string  (* candidate, targets, view digest *)
  | Refused of string * string  (* code, client text *)
  | Raised of string

let admitted = ref 0
let refused = ref 0

(* Verdicts, client text, audit detail, candidate bytes and view
   digests of [Check.run] — the digest taken from the bitmap the check
   hands on — equal the set-based reference's, whose digest
   recomputes accessibility. *)
let prop_write_path_matches_reference =
  QCheck2.Test.make ~name:"write path = set-based reference" ~count:1000
    ~print:print_write_case gen_write_case
    (fun (seed, scale, ward, (_, spec), text) ->
      let doc = Workload.Hospital.generated_document ~seed ~scale () in
      let env = Workload.Hospital.nurse_env ward in
      let view = Secview.Derive.derive spec in
      let update = Parse.of_string text in
      let outcome run =
        let detail = ref [] in
        let audit d = detail := d :: !detail in
        let result =
          match run audit with
          | Ok (candidate, targets, digest) ->
            Admitted (Sxml.Print.to_string candidate, targets, digest ())
          | Error e ->
            Refused (Secview.Error.to_code e, Secview.Error.to_string e)
          | exception e -> Raised (Printexc.to_string e)
        in
        (result, List.rev !detail)
      in
      let reference =
        outcome (fun audit ->
            Result.map
              (fun (candidate, targets) ->
                ( candidate, targets,
                  fun () -> Engine.view_digest ~env ~spec ~view candidate ))
              (Reference.run ~dtd ~spec ~view ~env ~audit doc update))
      in
      let arrays =
        outcome (fun audit ->
            Result.map
              (fun (candidate, targets, access) ->
                ( candidate, targets,
                  fun () ->
                    Engine.view_digest ~env ~access ~spec ~view candidate ))
              (Supdate.Check.run ~dtd ~spec ~view ~env ~audit doc update))
      in
      (match fst arrays with
      | Admitted _ -> incr admitted
      | Refused _ | Raised _ -> incr refused);
      arrays = reference)

let test_write_path_differential () =
  admitted := 0;
  refused := 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 13 |])
    prop_write_path_matches_reference;
  Alcotest.(check bool)
    (Printf.sprintf "both verdicts drawn (%d admitted, %d refused)" !admitted
       !refused)
    true
    (!admitted > 0 && !refused > 0)

(* --- allocation -------------------------------------------------- *)

(* The serving benchmark's document shape: 9 departments of 19 trial
   and 19 regular patients and 13 staff, 4,186 nodes; one department
   has no regular patient of ward 6, so the nurse view shows 304
   bills. *)
let bench_shaped_document () =
  let open Sxml.Tree in
  let leaf tag v = elem tag [ text v ] in
  let patient k ~ward ~trial =
    let bill = leaf "bill" (string_of_int (10 + k)) in
    elem "patient"
      [
        leaf "name" (Printf.sprintf "person%d" k);
        leaf "wardNo" ward;
        elem "treatment"
          [
            (if trial then elem "trial" [ bill ]
             else
               elem "regular"
                 [ bill; leaf "medication" (Printf.sprintf "med%d" (k mod 100)) ]);
          ];
      ]
  in
  let dept d =
    let ward i =
      if d = 8 then "7" else if i mod 3 = 0 then "6" else string_of_int (i mod 10)
    in
    let patients ~trial off =
      List.init 19 (fun i -> patient ((100 * d) + off + i) ~ward:(ward i) ~trial)
    in
    elem "dept"
      [
        elem "clinicalTrial"
          [ elem "patientInfo" (patients ~trial:true 0); leaf "test" "blood" ];
        elem "patientInfo" (patients ~trial:false 50);
        elem "staffInfo"
          (List.init 13 (fun i ->
               elem "staff"
                 [
                   (if i mod 2 = 0 then
                      elem "doctor" [ leaf "name" "dr"; leaf "specialty" "onco" ]
                    else
                      elem "nurse"
                        [ leaf "name" "nn"; leaf "wardNo" (string_of_int i) ]);
                 ]));
      ]
  in
  of_spec (elem "hospital" (List.init 9 dept))

(* One admitted write, pinned: [replace //patient//bill] on the
   benchmark-shaped document allocated 2.04M minor words when the old
   document, the candidate and the view digest each built their own
   balanced-set accessibility pass, next to whole-document hash tables
   for parents and survivors.  With one bitmap per version, shared by
   the check and the digest, it allocates ~0.84M. *)
let test_write_allocation () =
  let catalog = Catalog.create () in
  let doc = bench_shaped_document () in
  Alcotest.(check int) "document size" 4186 (Sxml.Tree.size doc);
  let entry = Catalog.add catalog ~name:"ward" doc in
  let spec =
    nurse_spec
      [ (("trial", "bill"), [ Spec.Replace ]); (("regular", "bill"), [ Spec.Replace ]) ]
  in
  let svc = Pipeline.Service.create ~catalog dtd ~groups:[ ("g", spec) ] in
  let update = Parse.of_string "replace //patient//bill with <bill>1</bill>" in
  let write () =
    match Engine.apply svc ~group:"g" ~env ~entry update with
    | Ok r -> r.Engine.r_targets
    | Error e -> Alcotest.fail (Secview.Error.to_string e)
  in
  (* warm: rewriting memos filled *)
  Alcotest.(check int) "targets" 304 (write ());
  let n = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (write ())
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "<= 1.02M minor words per write (%.0f)" per)
    true (per <= 1_020_000.)

let () =
  Alcotest.run "update"
    [
      ( "language",
        [
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "grants",
        [
          Alcotest.test_case "default deny" `Quick test_default_deny;
          Alcotest.test_case "per-op" `Quick test_grants_are_per_op;
          Alcotest.test_case "per-edge" `Quick test_ungranted_edge_denied;
          Alcotest.test_case "stored view" `Quick test_stored_view_group_denied;
        ] );
      ( "apply",
        [
          Alcotest.test_case "delete" `Quick test_accepted_delete;
          Alcotest.test_case "insert+replace" `Quick
            test_accepted_insert_and_replace;
          Alcotest.test_case "leaf replace" `Quick
            test_replace_medication_needs_regular_grant;
          Alcotest.test_case "dtd violation" `Quick test_dtd_violation_rejected;
          Alcotest.test_case "empty target" `Quick test_empty_target_rejected;
        ] );
      ( "policy",
        [
          Alcotest.test_case "hidden subtree" `Quick
            test_nurse_subtree_with_hidden_nodes;
          Alcotest.test_case "unreadable content" `Quick
            test_nurse_cannot_write_unreadable_content;
          Alcotest.test_case "visible leaf" `Quick
            test_nurse_can_update_visible_leaf;
          Alcotest.test_case "out of view" `Quick
            test_nurse_other_ward_out_of_view;
          Alcotest.test_case "qualifier flip" `Quick
            test_qualifier_flip_denied;
          Alcotest.test_case "sanitized denial" `Quick
            test_denial_text_is_sanitized;
          Alcotest.test_case "sanitized dtd violation" `Quick
            test_dtd_violation_text_is_sanitized;
          Alcotest.test_case "view-scoped digest" `Quick
            test_receipt_digest_is_view_scoped;
          Alcotest.test_case "text content" `Quick
            test_text_content_typed_error;
        ] );
      ( "caches",
        [
          Alcotest.test_case "writes keep translations warm" `Quick
            test_writes_keep_translations_warm;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "hammer" `Quick test_snapshot_isolation_hammer;
        ] );
      ( "write path",
        [
          Alcotest.test_case "differential" `Quick test_write_path_differential;
          Alcotest.test_case "allocation" `Quick test_write_allocation;
        ] );
    ]
