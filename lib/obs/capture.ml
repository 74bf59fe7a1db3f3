let schema_version = 2

let digest results = Digest.to_hex (Digest.string (String.concat "\n" results))

let to_json (r : Request.t) =
  Json.Obj
    [
      ("v", Json.Int schema_version);
      ("rid", Json.String r.rid);
      ("verb", Json.String r.verb);
      ("group", Json.String r.group);
      ("doc", match r.doc with Some d -> Json.String d | None -> Json.Null);
      ("query", Json.String r.query);
      ("bind", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.bind));
      ("index", Json.Bool r.index);
      ("engine", Json.String r.engine);
      ("status", Json.String (if r.status = "late" then "ok" else r.status));
      ("results", Json.Int r.results);
      ("digest", Json.String (Option.value r.digest ~default:""));
      ("latency_ms", Json.Float r.latency_ms);
    ]

let of_json j =
  let str name = Option.bind (Json.member name j) Json.to_string_opt in
  let req name =
    match str name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "capture record: missing %S" name)
  in
  match Option.bind (Json.member "v" j) Json.to_int_opt with
  | None -> Error "capture record: missing \"v\""
  | Some v when v <> 1 && v <> schema_version ->
    Error (Printf.sprintf "capture record: unsupported version %d" v)
  | Some _ -> (
    match (req "rid", req "group", req "query", req "digest") with
    | Ok rid, Ok group, Ok query, Ok digest ->
      let bind =
        match Json.member "bind" j with
        | Some (Json.Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              match Json.to_string_opt v with
              | Some s -> Some (k, s)
              | None -> None)
            fields
        | _ -> []
      in
      Ok
        {
          Request.empty with
          rid;
          verb = Option.value ~default:"query" (str "verb");
          group;
          doc = str "doc";
          query;
          bind;
          index =
            Option.value ~default:true
              (Option.bind (Json.member "index" j) Json.to_bool_opt);
          engine = Option.value ~default:"plan" (str "engine");
          status = Option.value ~default:"ok" (str "status");
          results =
            Option.value ~default:0
              (Option.bind (Json.member "results" j) Json.to_int_opt);
          digest = Some digest;
          latency_ms =
            Option.value ~default:0.
              (Option.bind (Json.member "latency_ms" j) Json.to_float_opt);
        }
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _
    | _, _, _, Error e ->
      Error e)

(* Writer: one JSONL line per request, flushed so a captured workload
   survives a crash of the process under observation.  The mutex
   serializes concurrent server workers. *)

type t = { oc : out_channel; wlock : Mutex.t }

let open_file path =
  (* append, so a mixed workload built by several CLI invocations
     (query, then update, then query again) accumulates in one file *)
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  { oc; wlock = Mutex.create () }

let write t r =
  Mutex.protect t.wlock (fun () ->
      Json.to_channel t.oc (to_json r);
      output_char t.oc '\n';
      flush t.oc)

let close t = Mutex.protect t.wlock (fun () -> close_out t.oc)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop n acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> loop (n + 1) acc
        | line -> (
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e)
          | Ok j -> (
            match of_json j with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e)
            | Ok r -> loop (n + 1) (r :: acc)))
      in
      loop 1 [])
