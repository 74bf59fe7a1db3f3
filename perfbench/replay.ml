(* The traced run's in-process half: the identical request stream
   replayed through the calls the server makes for it, over the same
   generated files.

   A read goes as in the server: decode, parse and classify on the
   admission session (the connection thread's), then, unless admission
   answered, parse again, [answer_outcome] with the pinned document,
   print and encode on the worker session.  A write is
   [Supdate.Parse] then [Engine.apply].  Only those calls make up the
   in-process cost and the per-request allocation.  Translation, plan
   compilation and the update check run inside [answer_outcome] and
   [apply]; they are timed afterwards, outside the per-request window,
   on shadow sessions and the pinned pre-write document. *)

module P = Secview.Pipeline
module J = Sobs.Json

type acc = { mutable n : int; mutable us : float; mutable words : float }

let acc () = { n = 0; us = 0.; words = 0. }

(* Run [f] and add its time and allocation to [a]; returns the result
   and the microseconds it took. *)
let timed a f =
  let w0 = Gc.minor_words () in
  let t0 = Wire.now () in
  let r = f () in
  let t1 = Wire.now () in
  let w1 = Gc.minor_words () in
  let us = 1e6 *. (t1 -. t0) in
  a.n <- a.n + 1;
  a.us <- a.us +. us;
  a.words <- a.words +. (w1 -. w0);
  (r, us)

let mean_us a = if a.n = 0 then 0. else a.us /. float a.n
let mean_words a = if a.n = 0 then 0. else a.words /. float a.n

type t = {
  (* calls the server makes *)
  decode : acc;
  parse : acc;
  classify : acc;
  index : acc;
  answer : acc;
  print : acc;
  encode : acc;
  uparse : acc;
  apply : acc;
  (* shadow timings of the work inside them *)
  answer_warm : acc;  (** the answers whose translation hit *)
  translate : acc;
  translate_miss : acc;
  compile : acc;
  check : acc;
  commit : acc;
  mutable live_reads : int;
  mutable read_us : float;  (** in-process cost of the live reads, summed *)
  mutable reads : int;
  mutable reply_bytes : int;
  mutable translate_lookups : int;
  mutable translate_misses : int;
  mutable plan_hits : int;
  mutable plan_lookups : int;
  mutable admitted : int;
  mutable writes : int;
  mutable requests : int;
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable examined : int;
  mutable rows : int;
  mutable answered :
    (Sxpath.Ast.path * (string -> string option) * Sxml.Tree.t) list;
      (** what each answered read ran on, for the operator-count pass *)
}

let create () =
  {
    decode = acc (); parse = acc (); classify = acc (); index = acc ();
    answer = acc (); print = acc (); encode = acc (); uparse = acc ();
    apply = acc (); answer_warm = acc (); translate = acc (); translate_miss = acc ();
    compile = acc (); check = acc (); commit = acc (); live_reads = 0;
    read_us = 0.; reads = 0; reply_bytes = 0; translate_lookups = 0;
    translate_misses = 0; plan_hits = 0; plan_lookups = 0; admitted = 0;
    writes = 0; requests = 0; minor_words = 0.; minor_gcs = 0; major_gcs = 0;
    examined = 0; rows = 0; answered = [];
  }

let encode_reply r ~rid results =
  fst
    (timed r.encode (fun () ->
         J.to_string
           (Sserver.Protocol.ok ~rid
              [
                ("results", J.List (List.map (fun s -> J.String s) results));
                ("count", J.Int (List.length results));
              ])))

let parse r text =
  match fst (timed r.parse (fun () -> Sxpath.Parse.of_string_result text)) with
  | Ok path -> path
  | Error _ -> failwith ("replay: query does not parse: " ^ text)

(* The plan the worker session compiles on a translation miss,
   statically empty union branches pruned as [Pipeline] does when the
   admission analyzer is linked. *)
let compile_as_served dtd translated =
  let prune =
    match Sxpath.Ast.union_branches translated with
    | [] | [ _ ] -> []
    | branches ->
      List.filter
        (fun b ->
          match Sanalysis.Semantic.admission dtd b with
          | P.Denied_empty _ -> true
          | P.Trivial | P.Needs_eval -> false)
        branches
  in
  Splan.Compile.compile ~prune translated

(* [items.(0 .. live - 1)] are the live open loop's requests: the
   in-process cost of their reads is what the residual is taken
   against. *)
let run (files : Gen.files) (items : Gen.item array) ~live =
  let r = create () in
  let svc, entry = Gen.load_service files in
  let adm = P.Session.create svc and sess = P.Session.create svc in
  (* a session whose translations stay warm, for timing a hit *)
  let warm = P.Session.create svc in
  let group = Gen.group in
  let dtd = P.Service.dtd svc in
  let spec = Option.get (P.Service.spec svc ~group) in
  let view = P.Service.view svc ~group in
  let dirty = ref false in
  (* Each request runs the server's calls and returns the shadow
     timings, to be run once its allocation has been taken. *)
  let read r (q : Sserver.Protocol.query) ~rid =
    r.reads <- r.reads + 1;
    let env name = List.assoc_opt name q.bind in
    let path = parse r q.text in
    match fst (timed r.classify (fun () -> P.Session.classify adm ~group path)) with
    | Ok (P.Denied_empty _) ->
      r.reply_bytes <- r.reply_bytes + 1 + String.length (encode_reply r ~rid []);
      ignore
    | Ok (P.Trivial | P.Needs_eval) -> (
      let path = parse r q.text in
      let snap = Secview.Catalog.pin entry in
      let doc = Secview.Catalog.snapshot_doc snap in
      (* the index [answer_outcome] would build, timed on its own *)
      if !dirty then begin
        ignore (timed r.index (fun () -> Secview.Catalog.snapshot_index snap));
        dirty := false
      end;
      let s0 = P.Session.stats_of sess ~group in
      let w0 = r.answer.words in
      match
        timed r.answer (fun () ->
            P.Session.answer_outcome sess ~group ~env path doc)
      with
      | Error e, _ -> failwith ("replay: " ^ Secview.Error.to_string e)
      | Ok o, us ->
        let s1 = P.Session.stats_of sess ~group in
        let missed = s1.misses > s0.misses in
        if not missed then begin
          r.answer_warm.n <- r.answer_warm.n + 1;
          r.answer_warm.us <- r.answer_warm.us +. us;
          r.answer_warm.words <- r.answer_warm.words +. r.answer.words -. w0
        end;
        let plan_missed = s1.plan_misses > s0.plan_misses in
        r.translate_lookups <-
          r.translate_lookups + s1.hits - s0.hits + s1.misses - s0.misses;
        r.translate_misses <- r.translate_misses + s1.misses - s0.misses;
        r.plan_hits <- r.plan_hits + s1.plan_hits - s0.plan_hits;
        r.plan_lookups <-
          r.plan_lookups + s1.plan_hits - s0.plan_hits + s1.plan_misses
          - s0.plan_misses;
        let printed =
          fst
            (timed r.print (fun () ->
                 List.map (fun n -> Sxml.Print.to_string n) o.P.o_results))
        in
        r.reply_bytes <-
          r.reply_bytes + 1 + String.length (encode_reply r ~rid printed);
        r.answered <- (path, env, doc) :: r.answered;
        fun () ->
          if missed then begin
            let fresh = P.Session.create svc in
            let translated, us =
              timed r.translate (fun () -> P.Session.translate fresh ~group path)
            in
            r.translate_miss.n <- r.translate_miss.n + 1;
            r.translate_miss.us <- r.translate_miss.us +. us;
            if plan_missed then
              ignore (timed r.compile (fun () -> compile_as_served dtd translated))
          end
          else begin
            ignore (P.Session.translate warm ~group path);
            ignore (timed r.translate (fun () -> P.Session.translate warm ~group path))
          end)
    | Error e -> failwith ("replay: " ^ Secview.Error.to_string e)
  in
  let write r (q : Sserver.Protocol.query) =
    r.writes <- r.writes + 1;
    let env name = List.assoc_opt name q.bind in
    let upd, _ = timed r.uparse (fun () -> Supdate.Parse.of_string q.text) in
    let doc = Secview.Catalog.doc entry in
    let applied, apply_us =
      timed r.apply (fun () -> Supdate.Engine.apply svc ~group ~env ~entry upd)
    in
    (match applied with
    | Ok _ ->
      r.admitted <- r.admitted + 1;
      dirty := true
    | Error e -> failwith ("replay write: " ^ Secview.Error.to_string e));
    fun () ->
      (* the check [apply] ran, again on the same document; commit is
         what [apply] spent beyond it *)
      let _, check_us =
        timed r.check (fun () -> Supdate.Check.run ~dtd ~spec ~view ~env doc upd)
      in
      r.commit.n <- r.commit.n + 1;
      r.commit.us <- r.commit.us +. (apply_us -. check_us)
  in
  let one r ~live (it : Gen.item) =
    let line = String.sub it.line 0 (String.length it.line - 1) in
    let read_accs =
      [ r.decode; r.parse; r.classify; r.index; r.answer; r.print; r.encode ]
    in
    let total () = List.fold_left (fun s a -> s +. a.us) 0. read_accs in
    let before = total () in
    match fst (timed r.decode (fun () -> Sserver.Protocol.request_of_line line)) with
    | Ok (Sserver.Protocol.Query q, _) ->
      let shadow = read r q ~rid:it.rid in
      if live then begin
        r.live_reads <- r.live_reads + 1;
        r.read_us <- r.read_us +. total () -. before
      end;
      shadow
    | Ok (Sserver.Protocol.Update q, _) -> write r q
    | Ok _ | Error _ -> failwith ("replay: unexpected request " ^ line)
  in
  (* the server's set-up read, on a throwaway tally: document parse,
     index build, first translation *)
  let (_ : unit -> unit) =
    one (create ()) ~live:false (Gen.setup_item ~values:[||])
  in
  Array.iteri
    (fun i it ->
      let q0 = Gc.quick_stat () in
      let w0 = Gc.minor_words () in
      let shadow = one r ~live:(i < live) it in
      let w1 = Gc.minor_words () in
      let q1 = Gc.quick_stat () in
      r.requests <- r.requests + 1;
      r.minor_words <- r.minor_words +. (w1 -. w0);
      r.minor_gcs <- r.minor_gcs + q1.minor_collections - q0.minor_collections;
      r.major_gcs <- r.major_gcs + q1.major_collections - q0.major_collections;
      shadow ())
    items;
  (* operator counts, untimed, on a session of their own *)
  let counting = P.Session.create svc in
  List.iter
    (fun (path, env, doc) ->
      match
        P.Session.answer_outcome counting ~group ~counts:true ~env path doc
      with
      | Ok o ->
        let get k = Option.value (List.assoc_opt k o.P.o_counts) ~default:0 in
        r.examined <- r.examined + get "scanned" + get "probes";
        r.rows <- r.rows + get "rows"
      | Error _ -> ())
    r.answered;
  r.answered <- [];
  r
