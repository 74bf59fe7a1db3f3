type sink = string -> int -> int -> unit

(* The entity replacing [c], or [""] when [c] is emitted as is. *)
let entity ~attr = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' when attr -> "&quot;"
  | '\'' when attr -> "&apos;"
  | _ -> ""

(* Emit [s] escaped: every run of clean bytes goes out as one slice of
   [s], every escaped byte as its constant entity. *)
let escape (emit : sink) ~attr s =
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    match entity ~attr (String.unsafe_get s i) with
    | "" -> ()
    | e ->
      if i > !run then emit s !run (i - !run);
      emit e 0 (String.length e);
      run := i + 1
  done;
  let n = String.length s in
  if n > !run then emit s !run (n - !run)

let escape_via ~attr s =
  let buf = Buffer.create (String.length s + 8) in
  escape (fun s off len -> Buffer.add_substring buf s off len) ~attr s;
  Buffer.contents buf

let escape_text s = escape_via ~attr:false s
let escape_attr s = escape_via ~attr:true s

let element_only children = List.for_all Tree.is_element children

(* The walk is top-level functions with the sink as an argument, not
   closures over it: serializing a node allocates nothing. *)
let str (emit : sink) s = emit s 0 (String.length s)

let pad (emit : sink) level =
  str emit "\n";
  for _ = 1 to level do
    str emit "  "
  done

let rec node emit indent level (n : Tree.t) =
  match n.desc with
  | Text s -> escape emit ~attr:false s
  | Element e -> (
    str emit "<";
    str emit e.tag;
    attrs emit e.attrs;
    match e.children with
    | [] -> str emit "/>"
    | children ->
      str emit ">";
      (* Indent only element-only content: indenting mixed content
         would inject whitespace into PCDATA. *)
      let pretty = indent && element_only children in
      nodes emit indent pretty (level + 1) children;
      if pretty then pad emit level;
      str emit "</";
      str emit e.tag;
      str emit ">")

and attrs emit = function
  | [] -> ()
  | (k, v) :: rest ->
    str emit " ";
    str emit k;
    str emit "=\"";
    escape emit ~attr:true v;
    str emit "\"";
    attrs emit rest

and nodes emit indent pretty level = function
  | [] -> ()
  | n :: rest ->
    if pretty then pad emit level;
    node emit indent level n;
    nodes emit indent pretty level rest

let walk ?(indent = false) emit doc = node emit indent 0 doc

let to_buffer ?indent buf doc =
  walk ?indent (fun s off len -> Buffer.add_substring buf s off len) doc

let to_string ?indent doc =
  let buf = Buffer.create 64 in
  to_buffer ?indent buf doc;
  Buffer.contents buf

let to_channel ?indent oc doc =
  let buf = Buffer.create 4096 in
  to_buffer ?indent buf doc;
  Buffer.output_buffer oc buf

let to_file ?indent path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> to_channel ?indent oc doc)
