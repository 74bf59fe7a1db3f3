type t = {
  rid : string;
  verb : string;
  session : int option;
  peer : string option;
  group : string;
  doc : string option;
  doc_label : string option;
  doc_version : int option;
  query : string;
  bind : (string * string) list;
  index : bool;
  engine : string;
  admission : string option;
  status : string;
  error : string option;
  results : int;
  digest : string option;
  latency_ms : float;
  gc_pause : (float * int) option;
  ts_ns : int64;
  spans : Tracer.span list;
  counts : (string * int) list;
  translated : string option;
  targets : int option;
  old_version : int option;
  new_version : int option;
}

let empty =
  {
    rid = "";
    verb = "query";
    session = None;
    peer = None;
    group = "";
    doc = None;
    doc_label = None;
    doc_version = None;
    query = "";
    bind = [];
    index = false;
    engine = "plan";
    admission = None;
    status = "ok";
    error = None;
    results = 0;
    digest = None;
    latency_ms = 0.;
    gc_pause = None;
    ts_ns = 0L;
    spans = [];
    counts = [];
    translated = None;
    targets = None;
    old_version = None;
    new_version = None;
  }

let audit_error e ~detail =
  match detail with
  | Some d -> Secview.Error.to_string e ^ " [" ^ d ^ "]"
  | None -> Secview.Error.to_string e
