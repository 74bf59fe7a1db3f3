(* The single-session oracle: the expected reply to every request,
   computed before the server starts by one Pipeline session over the
   same generated files the server is given.

   A read's reply is [prefix ^ rid ^ suffix]; rids are pinned
   client-side, so only the suffix depends on the request, and on
   which document state answered it.  State 0 is the generated
   document; state [s] is the document after the write installing
   [values.(s - 1)] (every write replaces all bills the view shows,
   so the state after a write does not depend on what came before). *)

module P = Secview.Pipeline
module J = Sobs.Json

type t = {
  sess : P.Session.t;
  values : int array;
  docs : Sxml.Tree.t array;  (** per state *)
  writes : (int * string) array;  (** per state ≥ 1: targets, view digest *)
  reads : (string, string array) Hashtbl.t;  (** suffix per state *)
  prefix : string;
}

let marker = "@@RID@@"
let never = "\000"
let env bind name = List.assoc_opt name bind

let read_key text bind =
  String.concat "\001" (text :: List.map (fun (k, v) -> k ^ "=" ^ v) bind)

let split_reply json =
  let s = J.to_string json in
  let m = String.length marker in
  let rec find i =
    if String.sub s i m = marker then i else find (i + 1)
  in
  let i = find 0 in
  (String.sub s 0 i, String.sub s (i + m) (String.length s - i - m))

let answer_suffix t ~text ~bind doc =
  match
    P.Session.answer t.sess ~group:Gen.group ~env:(env bind)
      (Sxpath.Parse.of_string text) doc
  with
  | Error e ->
    failwith ("oracle: " ^ text ^ ": " ^ Secview.Error.to_string e)
  | Ok nodes ->
    let printed = List.map (fun n -> Sxml.Print.to_string n) nodes in
    snd
      (split_reply
         (Sserver.Protocol.ok ~rid:marker
            [
              ("results", J.List (List.map (fun s -> J.String s) printed));
              ("count", J.Int (List.length printed));
            ]))

let create (files : Gen.files) ~values =
  let svc, entry = Gen.load_service files in
  let catalog = P.Service.catalog svc in
  let doc0 = Secview.Catalog.doc entry in
  let receipts =
    Array.mapi
      (fun i v ->
        let e =
          Secview.Catalog.add catalog ~name:(Printf.sprintf "state%d" (i + 1))
            doc0
        in
        match
          Supdate.Engine.apply_text svc ~group:Gen.group
            ~env:(env Gen.base_bind) ~entry:e (Gen.update_text v)
        with
        | Ok r -> r
        | Error err ->
          failwith ("oracle: write refused: " ^ Secview.Error.to_string err))
      values
  in
  {
    sess = P.Session.create svc;
    values;
    docs = Array.append [| doc0 |] (Array.map (fun r -> r.Supdate.Engine.r_doc) receipts);
    writes =
      Array.append [| (0, never) |]
        (Array.map
           (fun r -> (r.Supdate.Engine.r_targets, r.Supdate.Engine.r_view_digest))
           receipts);
    reads = Hashtbl.create 4096;
    prefix = fst (split_reply (Sserver.Protocol.ok ~rid:marker []));
  }

(* Reads of the hot mix can follow a write, so they get an expected
   reply in every state; every other read only ever runs against the
   generated document. *)
let expect t ~text ~bind =
  let key = read_key text bind in
  if not (Hashtbl.mem t.reads key) then begin
    let all = Array.mem text Gen.hot_mix in
    Hashtbl.replace t.reads key
      (Array.mapi
         (fun s doc ->
           if s = 0 || all then answer_suffix t ~text ~bind doc else never)
         t.docs)
  end

let prepare t (items : Gen.item array) =
  Array.iter
    (fun (it : Gen.item) ->
      match it.kind with
      | Gen.Read { text; bind } -> expect t ~text ~bind
      | Gen.Write _ -> ())
    (Array.append [| Gen.setup_item ~values:t.values |] items)

(* Self-test hook: make one expected reply wrong, in every state. *)
let corrupt t ~text ~bind =
  expect t ~text ~bind;
  let a = Hashtbl.find t.reads (read_key text bind) in
  Array.iteri (fun s x -> if x != never then a.(s) <- "X" ^ x) a

let region_equal buf off s =
  let n = String.length s in
  let rec go i =
    i = n || (Bytes.unsafe_get buf (off + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

(* The states (bit mask) whose expected reply equals the line
   [buf.[off .. off + len)]; 0 when none does. *)
let check_read t (it : Gen.item) buf off len =
  match it.kind with
  | Gen.Write _ -> invalid_arg "check_read"
  | Gen.Read { text; bind } ->
    let suffixes = Hashtbl.find t.reads (read_key text bind) in
    let pl = String.length t.prefix and rl = String.length it.rid in
    if
      len < pl + rl
      || not (region_equal buf off t.prefix && region_equal buf (off + pl) it.rid)
    then 0
    else begin
      let mask = ref 0 in
      Array.iteri
        (fun s suffix ->
          if
            String.length suffix = len - pl - rl
            && region_equal buf (off + pl + rl) suffix
          then mask := !mask lor (1 lsl s))
        suffixes;
      !mask
    end

(* A write reply: [Some (old_version, new_version)] when op, targets
   and view digest are the oracle's for the state it installs. *)
let check_write t (it : Gen.item) line =
  match it.kind with
  | Gen.Read _ -> invalid_arg "check_write"
  | Gen.Write s -> (
    let targets, digest = t.writes.(s) in
    match J.of_string line with
    | Error _ -> None
    | Ok j ->
      let field f k = Option.bind (J.member k j) f in
      if
        field J.to_bool_opt "ok" = Some true
        && field J.to_string_opt "rid" = Some it.rid
        && field J.to_string_opt "op" = Some "replace"
        && field J.to_int_opt "targets" = Some targets
        && field J.to_string_opt "digest" = Some digest
      then
        match (field J.to_int_opt "old_version", field J.to_int_opt "new_version") with
        | Some o, Some n when n > o -> Some (o, n)
        | _ -> None
      else None)
