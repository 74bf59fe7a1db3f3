(* Workload inputs, all derived from the seed: the files the server is
   given (DTD, policy, document) and the request streams. *)

module J = Sobs.Json

let group = "nurse"
let ward = "6"

(* The nurse policy (Example 3.1) plus the bill-replace grants every
   workload's writes need. *)
let spec_text () =
  Secview.Spec.to_sidecar
    (Workload.Hospital.nurse_spec
       ~write:
         [
           (("trial", "bill"), [ Secview.Spec.Replace ]);
           (("regular", "bill"), [ Secview.Spec.Replace ]);
         ]
       Workload.Hospital.dtd)

type files = {
  dir : string;
  dtd : string;
  spec : string;
  doc : string;
}

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The document: the shape of the scale-40 hospital instance of the
   earlier serving benches (9 departments, 342 patients, ~2.7k
   elements, ~55 KB), fixed so every seed does the same amount of
   work; the seed picks names, wards, treatments, bills and which
   department the nurse policy hides (exactly one: no regular patient
   of ward 6). *)
let depts = 9
let trial_per_dept = 19
let regular_per_dept = 19
let staff_per_dept = 13

let document ~seed =
  let rng = Random.State.make [| seed; 0xd0c |] in
  let int n = Random.State.int rng n in
  let open Sxml.Tree in
  let leaf tag v = elem tag [ text v ] in
  let name () = leaf "name" (Printf.sprintf "person%d" (int 1000)) in
  let other_ward () = string_of_int (let w = int 9 in if w >= 6 then w + 1 else w) in
  let patient ~ward_no ~trial =
    elem "patient"
      [
        name (); leaf "wardNo" ward_no;
        elem "treatment"
          [
            (let bill = leaf "bill" (string_of_int (10 + int 9990)) in
             if trial then elem "trial" [ bill ]
             else elem "regular" [ bill; leaf "medication" (Printf.sprintf "med%d" (int 100)) ]);
          ];
      ]
  in
  let hidden = int depts in
  let dept d =
    let ward6 = int regular_per_dept in
    let regular =
      List.init regular_per_dept (fun i ->
          let ward_no =
            if d = hidden then other_ward ()
            else if i = ward6 then ward
            else string_of_int (int 10)
          in
          patient ~ward_no ~trial:false)
    in
    let trials =
      List.init trial_per_dept (fun _ ->
          patient ~ward_no:(string_of_int (int 10)) ~trial:true)
    in
    let staff =
      List.init staff_per_dept (fun _ ->
          elem "staff"
            [
              (if int 2 = 0 then
                 elem "doctor" [ name (); leaf "specialty" (Printf.sprintf "spec%d" (int 20)) ]
               else elem "nurse" [ name (); leaf "wardNo" (string_of_int (int 10)) ]);
            ])
    in
    elem "dept"
      [
        elem "clinicalTrial" [ elem "patientInfo" trials; leaf "test" "blood" ];
        elem "patientInfo" regular;
        elem "staffInfo" staff;
      ]
  in
  of_spec (elem "hospital" (List.init depts dept))

let write_files ~dir ~seed =
  let f name = Filename.concat dir name in
  let files =
    { dir; dtd = f "hospital.dtd"; spec = f "nurse.spec"; doc = f "ward.xml" }
  in
  (* the paper's hospital DTD (Fig. 1) *)
  write_file files.dtd (Sdtd.Dtd.to_string Workload.Hospital.dtd);
  write_file files.spec (spec_text ());
  write_file files.doc (Sxml.Print.to_string (document ~seed));
  files

(* A Pipeline service over the generated files, as the server builds
   it: the oracle and the traced replay each run one. *)
let load_service files =
  let dtd = Sdtd.Parse.of_file files.dtd in
  let spec = Secview.Spec.of_sidecar_file dtd files.spec in
  let catalog = Secview.Catalog.create () in
  let entry = Secview.Catalog.add_file catalog ~name:"ward" files.doc in
  (Secview.Pipeline.Service.create ~catalog dtd ~groups:[ (group, spec) ], entry)

(* ---- requests ------------------------------------------------------ *)

(* A read names its oracle entry by the query text and bindings; a
   write names the state (index into [write_values], 1-based) the
   document is in once it commits. *)
type kind =
  | Read of { text : string; bind : (string * string) list }
  | Write of int

type item = {
  kind : kind;
  rid : string;
  line : string;  (** the wire line, newline included *)
}

let base_bind = [ ("wardNo", ward) ]
let hot_mix = [| "//patient/name"; "//patient/wardNo"; "//patient" |]

(* Distinct bill values writes install; state [s] is "every bill the
   view shows reads [write_values.(s - 1)]". *)
let n_states = 16

let write_values ~seed =
  let rng = Random.State.make [| seed; 0x77 |] in
  let rec fill acc =
    if List.length acc = n_states then Array.of_list (List.rev acc)
    else
      let v = 100 + Random.State.int rng 99_900 in
      fill (if List.mem v acc then acc else v :: acc)
  in
  fill []

let update_text v = Printf.sprintf "replace //patient//bill with <bill>%d</bill>" v

let make_item ~rid kind ~values =
  let json =
    match kind with
    | Read { text; bind } -> Sserver.Protocol.query_json ~rid ~bind text
    | Write s ->
      Sserver.Protocol.update_json ~rid ~bind:base_bind
        (update_text values.(s - 1))
  in
  { kind; rid; line = J.to_string json ^ "\n" }

let hot_read rng =
  Read
    { text = hot_mix.(Random.State.int rng (Array.length hot_mix));
      bind = base_bind }

(* read-point keys: Zipf(0.9) ranks over 2^20 names.  The 1000 names
   the generator can put in the document ([person0]..[person999]) take
   the top ranks in a seeded order; the long tail names nobody. *)
let key_space = 1 lsl 20
let zipf_s = 0.9
let point_children = [| "name"; "wardNo"; "treatment"; "treatment//bill" |]
let provably_empty = [| "//test"; "//clinicalTrial" |]

let zipf_rank rng =
  let n = float_of_int key_space and e = 1. -. zipf_s in
  let u = Random.State.float rng 1. in
  let x = (((n ** e) -. 1.) *. u +. 1.) ** (1. /. e) in
  min (key_space - 1) (max 0 (int_of_float x - 1))

let person_order ~seed =
  let rng = Random.State.make [| seed; 0x9e |] in
  let a = Array.init 1000 Fun.id in
  for i = 999 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let point_read ~order rng =
  let r = Random.State.int rng 100 in
  if r < 10 then
    Read
      { text = provably_empty.(Random.State.int rng (Array.length provably_empty));
        bind = base_bind }
  else begin
    let rank = zipf_rank rng in
    let name =
      Printf.sprintf "person%d" (if rank < 1000 then order.(rank) else rank)
    in
    let child =
      point_children.(Random.State.int rng (Array.length point_children))
    in
    if r < 30 then
      Read
        { text = Printf.sprintf "//patient[name=$k]/%s" child;
          bind = ("k", name) :: base_bind }
    else
      Read
        { text = Printf.sprintf "//patient[name=\"%s\"]/%s" name child;
          bind = base_bind }
  end

type workload = Read_hot | Read_point | Mixed_rw

let workloads = [ ("read-hot", Read_hot); ("read-point", Read_point);
                  ("mixed-rw", Mixed_rw) ]

(* Offered rate of each workload's open loop, requests per second. *)
let rate = function
  | Read_hot -> 400.
  | Read_point -> 400.
  | Mixed_rw -> 100.

(* A stream is a pure function of (seed, phase tag): the same seed
   sends the same requests, and the traced run replays them. *)
let stream w ~seed ~tag ~values n =
  let rng = Random.State.make [| seed; Hashtbl.hash tag |] in
  let order = person_order ~seed in
  Array.init n (fun i ->
      let kind =
        match w with
        | Read_hot -> hot_read rng
        | Read_point -> point_read ~order rng
        | Mixed_rw ->
          if i mod 10 = 9 then Write (1 + Random.State.int rng n_states)
          else hot_read rng
      in
      make_item ~rid:(Printf.sprintf "%s%d" tag i) kind ~values)

(* The read that ends set-up: it forces the lazy document parse, index
   build and first translation. *)
let setup_item ~values =
  make_item ~rid:"setup" (Read { text = "//patient/name"; bind = base_bind })
    ~values
