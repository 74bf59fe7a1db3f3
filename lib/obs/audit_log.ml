type sink =
  | Null
  | Stderr
  | Channel of out_channel
  | Buffer of Buffer.t

type t = {
  clock : Clock.t;
  tracer : Tracer.t option;
  sink : sink;
  owned : bool;  (* close the channel on [close] *)
}

let create ?(clock = Clock.monotonic) ?tracer sink =
  { clock; tracer; sink; owned = false }

let open_file ?(clock = Clock.monotonic) ?tracer path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  { clock; tracer; sink = Channel oc; owned = true }

let close t =
  match t.sink with
  | Channel oc -> if t.owned then close_out oc else flush oc
  | Null | Stderr | Buffer _ -> ()

let emit t json =
  match t.sink with
  | Null -> ()
  | Stderr ->
    output_string stderr (Json.to_string json);
    output_char stderr '\n';
    flush stderr
  | Channel oc ->
    output_string oc (Json.to_string json);
    output_char oc '\n';
    flush oc
  | Buffer buf ->
    Buffer.add_string buf (Json.to_string json);
    Buffer.add_char buf '\n'

let base t kind =
  [ ("type", Json.String kind); ("ts_ns", Json.Int (Int64.to_int (t.clock ()))) ]

let opt f = function Some v -> f v | None -> Json.Null

let log_event t (ev : Secview.Trace.audit_event) =
  let stages =
    match t.tracer with
    | None -> []
    | Some tr ->
      [
        ( "stages_ms",
          Json.Obj
            (List.map
               (fun (name, ms) -> (name, Json.Float ms))
               (Tracer.stage_totals (Tracer.drain_new tr))) );
      ]
  in
  emit t
    (Json.Obj
       (base t "query"
       @ [
           ("group", Json.String ev.group);
           ("query", Json.String (Sxpath.Print.to_string ev.query));
           ( "translated",
             opt (fun p -> Json.String (Sxpath.Print.to_string p))
               ev.translated );
           ("cache", Json.String (if ev.cache_hit then "hit" else "miss"));
           ("height", opt (fun h -> Json.Int h) ev.height);
           ("results", Json.Int ev.results);
           ("error", opt (fun e -> Json.String e) ev.error);
         ]
       @ stages))

let log_diagnostic t ~code ~severity ~subject message =
  emit t
    (Json.Obj
       (base t "diagnostic"
       @ [
           ("code", Json.String code);
           ("severity", Json.String severity);
           ("subject", Json.String subject);
           ("message", Json.String message);
         ]))

(* The request's identity: rid, then session and peer when the
   request has them (a CLI request has neither). *)
let ctx (r : Request.t) =
  List.concat
    [
      (if r.rid = "" then [] else [ ("rid", Json.String r.rid) ]);
      (match r.session with Some s -> [ ("session", Json.Int s) ] | None -> []);
      (match r.peer with Some p -> [ ("peer", Json.String p) ] | None -> []);
    ]

(* One record per request.  A write is kind "update" when admitted,
   with the version transition, and "update_denied" otherwise, with
   the typed error — distinguishable at a glance from a denied query
   (kind "request", status "denied_empty"). *)
let request t (r : Request.t) =
  let kind, text, outcome =
    if r.verb <> "update" then
      ("request", "query", [ ("results", Json.Int r.results) ])
    else
      ( (if r.error = None then "update" else "update_denied"),
        "update",
        [
          ("targets", opt (fun n -> Json.Int n) r.targets);
          ("old_version", opt (fun v -> Json.Int v) r.old_version);
          ("new_version", opt (fun v -> Json.Int v) r.new_version);
        ] )
  in
  emit t
    (Json.Obj
       (base t kind @ ctx r
       @ [
           ("group", Json.String r.group);
           ("doc", opt (fun d -> Json.String d) r.doc_label);
           (text, Json.String r.query);
           ("status", Json.String r.status);
         ]
       @ outcome
       @ [
           ("latency_ms", Json.Float r.latency_ms);
           ("error", opt (fun e -> Json.String e) r.error);
         ]))

let slow_query t ~threshold_ms (r : Request.t) =
  let doc =
    match r.doc_label with Some d -> [ ("doc", Json.String d) ] | None -> []
  in
  emit t
    (Json.Obj
       (base t "slow_query" @ ctx r @ doc
       @ [
           ("group", Json.String r.group);
           ("query", Json.String r.query);
           ("translated", opt (fun s -> Json.String s) r.translated);
           ("latency_ms", Json.Float r.latency_ms);
           ("threshold_ms", Json.Float threshold_ms);
           ( "stages_ms",
             Json.Obj
               (List.map
                  (fun (name, ms) -> (name, Json.Float ms))
                  (Tracer.stage_totals r.spans)) );
           ( "op_counts",
             Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counts) );
           ("gc_pause_ms", opt (fun (ms, _) -> Json.Float ms) r.gc_pause);
           ("gc_pauses", opt (fun (_, n) -> Json.Int n) r.gc_pause);
         ]))

let log_note t ~kind message =
  emit t
    (Json.Obj
       (base t "note"
       @ [ ("kind", Json.String kind); ("message", Json.String message) ]))

let install t =
  (match t.tracer with
  | Some tr -> ignore (Tracer.drain_new tr)
  | None -> ());
  Secview.Trace.set_audit (fun ev -> log_event t ev)

let uninstall () = Secview.Trace.clear_audit ()
