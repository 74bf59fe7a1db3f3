(* The serving benchmark's load generator.

     loadgen --workload read-hot|read-point|mixed-rw --seed N
             --seconds S --trace 0|1
     loadgen --self-test

   Run from the repository root after building
   [bin/secview_cli.exe]; perfbench/run.sh does both.  It writes the
   workload's files under .perfbench/, starts [secview serve] on them
   as a child process, drives it over a Unix socket from this one
   thread, checks every reply against the single-session oracle, and
   prints a report line and then the result line (last line of
   stdout).  With [--trace 1] it reports the per-layer metrics
   instead of the end-to-end ones. *)

module J = Sobs.Json

let exe = "_build/default/bin/secview_cli.exe"
let nproc = List.length Wire.allowed_cpus
let domains = max 1 (nproc - 1)
let setups = 11

(* The bounded metrics are the ones a shared host cannot move: on a
   shared 2-vCPU virtual machine the host took 0.5-30% of the CPU time
   away across runs, and the wall-clock figures followed it (read-hot capacity and
   read p50 quartile spreads of 0.39 and 0.28 of the median over ten
   runs at 13-26% steal; read p99 0.6-1.0 at any steal) while CPU per
   request and peak RSS stayed within 0.09.  For the same reason
   [setup_s] is the server's CPU time up to its first correct reply;
   the elapsed set-up is reported beside it.  The wall-clock figures —
   [wall_clock] below — are measured every run and printed in the
   report line, next to the steal that explains them; the write
   figures only on mixed-rw, the one workload that writes. *)
let end_to_end =
  [ ("setup_s", "s"); ("server_rss_mb", "MB"); ("cpu_ms_per_req", "ms") ]

let wall_clock =
  [ "capacity_rps"; "read_p50_ms"; "read_p99_ms"; "write_p50_ms"; "write_p95_ms" ]

let per_layer =
  [
    ("sserver.decode_us", "us"); ("sserver.encode_us", "us");
    ("sserver.encode.minor_words", "words"); ("sserver.reply_bytes", "bytes");
    ("sserver.live_mean_us", "us"); ("sserver.inprocess_us", "us");
    ("sserver.residual_us", "us"); ("sserver.admission_fastpath_share", "ratio");
    ("sserver.requests", "count"); ("sserver.overloaded", "count");
    ("sxpath.parse_us", "us"); ("secview.classify_us", "us");
    ("secview.translate_us", "us"); ("secview.translate_miss_us", "us");
    ("secview.translate_hit_ratio", "ratio");
    ("secview.translate_lookups", "count");
    ("secview.translate.minor_words", "words"); ("secview.answer_us", "us");
    ("secview.answer.minor_words", "words"); ("secview.catalog_index_us", "us");
    ("secview.catalog_index_builds", "count"); ("splan.compile_us", "us");
    ("splan.plan_hit_ratio", "ratio"); ("splan.plan_lookups", "count");
    ("splan.examined_per_result", "ratio"); ("splan.result_rows", "count");
    ("sxml.print_us", "us"); ("sxml.print.minor_words", "words");
    ("supdate.parse_us", "us"); ("supdate.check_us", "us");
    ("supdate.check.minor_words", "words"); ("supdate.commit_us", "us");
    ("supdate.admit_ratio", "ratio"); ("supdate.writes", "count");
    ("gc.minor_words_per_req", "words");
    ("gc.minor_collections_per_kreq", "count");
    ("gc.major_collections_per_kreq", "count");
    ("gc.replay_requests", "count"); ("gc.pause_p99_ms", "ms");
    ("loadgen.lag_p99_ms", "ms"); ("error_rate", "ratio");
    ("trace.overhead_read_p50_ms", "ms");
    ("trace.overhead_cpu_ms_per_req", "ms");
  ]

(* ---- run directory -------------------------------------------------- *)

let root_dir = ".perfbench"

let with_run_dir ~name ~seed f =
  (try Unix.mkdir root_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat root_dir
      (Printf.sprintf "%s-%d-%d" name seed (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let clean () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    try Unix.rmdir root_dir with Unix.Unix_error _ -> ()
  in
  (* [exit] from a signal handler skips [finally]; at_exit does not *)
  at_exit clean;
  Fun.protect ~finally:clean (fun () -> f dir)

(* ---- one run -------------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  report : (string * J.t) list;
}

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let counter stats name =
  Option.value ~default:0
    (Option.bind
       (Option.bind (J.member "counters" stats) (J.member name))
       J.to_int_opt)

(* The worst per-domain GC pause p99 from the [stats] verb's
   [runtime] section (servers started with --runtime-events). *)
let gc_pause_p99 stats =
  match Option.bind (J.member "runtime" stats) (J.member "gc_pause_ms") with
  | Some (J.Obj doms) ->
    List.fold_left
      (fun m (_, d) ->
        max m
          (Option.value ~default:0.
             (Option.bind (J.member "p99_ms" d) J.to_float_opt)))
      0. doms
  | _ -> 0.

(* Report numbers: JSON has no NaN, so a statistic without samples is
   null. *)
let num x = if Float.is_nan x then J.Null else J.Float x

let sum_tallies ts f = List.fold_left (fun s t -> s + f t) 0 ts

let phase_json (t : Wire.tally) =
  J.Obj
    [
      ("attempted", J.Int t.attempted); ("correct", J.Int t.correct);
      ("errors", J.Int t.errors); ("mismatches", J.Int t.mismatches);
      ("reads", J.Int (Wire.Samples.count t.read_ms));
      ("writes", J.Int (Wire.Samples.count t.write_ms));
      ("elapsed_s", J.Float t.elapsed);
      ("lag_p50_ms", num (Wire.Samples.pct t.lag_ms 0.5));
      ("lag_p99_ms", num (Wire.Samples.pct t.lag_ms 0.99));
    ]

(* Expected replies for every request the streams hold; with
   [corrupt] (the self-test), one of them made wrong on purpose. *)
let prepare oracle ~corrupt (streams : Gen.item array list) =
  List.iter (Oracle.prepare oracle) streams;
  if corrupt then
    (* the first read of the open loop that set-up does not send *)
    let setup = (Gen.setup_item ~values:[||]).kind in
    match
      Array.find_opt
        (fun (it : Gen.item) ->
          match it.kind with Gen.Read _ -> it.kind <> setup | Gen.Write _ -> false)
        (List.hd streams)
    with
    | Some { kind = Gen.Read { text; bind }; _ } -> Oracle.corrupt oracle ~text ~bind
    | _ -> ()

(* A live server session: start (timed), second connection, then the
   phases [f] runs; the consistency check and shutdown follow. *)
let with_server ~files ~oracle ~values ~runtime_events f =
  let srv, setup =
    Wire.start ~exe ~files ~domains ~runtime_events ~oracle ~values
  in
  Fun.protect
    ~finally:(fun () -> if List.mem srv.Wire.pid !Wire.children then Wire.reap srv.pid)
    (fun () ->
      Wire.add_conn srv;
      let r = f srv in
      Wire.stop srv;
      (setup, Wire.consistency_violations srv, r))

(* A timed run measures [rounds] fresh servers one after another and
   pools their windows: the open loop is cut into windows of 250
   reads, and the run reports the median over all of them, which
   neither a burst of noise on the host nor one unlucky server process
   can move.  The tails in the report pool every read and write. *)
let rounds w = if w = Gen.Mixed_rw then 3 else 5

let windows_of ~per (items : Gen.item array) =
  let reads =
    Array.fold_left
      (fun n (it : Gen.item) ->
        match it.kind with Gen.Read _ -> n + 1 | Gen.Write _ -> n)
      0 items
  in
  max 1 (reads / per)

let window_bounds n windows w = (w * n / windows, (w + 1) * n / windows)

let window_read_pcts (t : Wire.tally) (items : Gen.item array) ~windows p =
  let n = Array.length items in
  List.init windows (fun w ->
      let lo, hi = window_bounds n windows w in
      let s = Wire.Samples.create () in
      for i = lo to hi - 1 do
        match items.(i).kind with
        | Gen.Read _ when not (Float.is_nan t.by_index.(i)) ->
          Wire.Samples.add s t.by_index.(i)
        | _ -> ()
      done;
      Wire.Samples.pct s p)

let window_cpu_per_req (t : Wire.tally) ~n ~windows =
  let marks = Array.of_list t.cpu_marks in
  List.init windows (fun w ->
      let lo, hi = window_bounds n windows w in
      (marks.(w + 1) -. marks.(w)) /. float (max 1 (hi - lo)))

(* Closed-loop throughput over windows of consecutive replies: each
   window's count over the time it took. *)
let window_rates (t : Wire.tally) =
  let n = Wire.Samples.count t.done_at in
  let k = max 50 (n / 20) in
  List.init (max 0 ((n - 1) / k)) (fun j ->
      float k /. (t.done_at.a.((j + 1) * k) -. t.done_at.a.(j * k)))

(* Requests each closed-loop connection keeps outstanding. *)
let capacity_depth = 4

type round = {
  setup : Wire.setup;
  violations : int;
  op : Wire.tally;
  cl : Wire.tally;
  rss : float;
  stats : J.t;
}

let timed_run w ~seed ~seconds ~corrupt ~files ~values ~oracle =
  let rate = Gen.rate w in
  let mixed = w = Gen.Mixed_rw in
  let rounds = rounds w in
  let per_round share = seconds *. share /. float rounds in
  let warm_s = per_round 0.05 in
  let open_s = per_round (if mixed then 0.75 else 0.6) in
  let closed_s = per_round (if mixed then 0.2 else 0.35) in
  let open_items =
    Gen.stream w ~seed ~tag:"o" ~values (int_of_float (rate *. open_s))
  in
  let closed_items =
    Gen.stream w ~seed ~tag:"c" ~values (max 1000 (int_of_float (3000. *. closed_s)))
  in
  let warm_items =
    Gen.stream w ~seed ~tag:"w" ~values (max 100 (int_of_float (3000. *. warm_s)))
  in
  prepare oracle ~corrupt [ open_items; closed_items; warm_items ];
  let windows = windows_of ~per:250 open_items in
  (* set-up alone, until [setups] servers have been timed in all *)
  let extra_setups =
    List.init (setups - rounds) (fun _ ->
        let srv, s =
          Wire.start ~exe ~files ~domains ~runtime_events:false ~oracle ~values
        in
        Wire.stop srv;
        s)
  in
  let steal0 = Wire.steal_ticks () and wall0 = Wire.now () in
  let round () =
    let setup, violations, (op, cl, rss, stats) =
      with_server ~files ~oracle ~values ~runtime_events:false (fun srv ->
          (* unmeasured: fill the caches and bring the host to the
             load it runs under *)
          ignore (Wire.closed_loop srv warm_items ~seconds:warm_s);
          let op = Wire.open_loop srv open_items ~rate ~windows in
          let cl =
            Wire.closed_loop ~depth:capacity_depth srv closed_items
              ~seconds:closed_s
          in
          (op, cl, Wire.peak_rss_mb srv.pid, Wire.stats srv))
    in
    { setup; violations; op; cl; rss; stats }
  in
  let rs = List.init rounds (fun _ -> round ()) in
  let steal_share =
    float (Wire.steal_ticks () - steal0)
    /. (100. *. float nproc *. (Wire.now () -. wall0))
  in
  let phases = List.concat_map (fun r -> [ r.op; r.cl ]) rs in
  let violations = List.fold_left (fun s r -> s + r.violations) 0 rs in
  let mismatches = sum_tallies phases (fun t -> t.mismatches) + violations in
  let errors = sum_tallies phases (fun t -> t.errors) in
  let attempted = sum_tallies phases (fun t -> t.attempted) + setups in
  let writes = Wire.Samples.concat (List.map (fun r -> r.op.write_ms) rs) in
  let reads = Wire.Samples.concat (List.map (fun r -> r.op.read_ms) rs) in
  let n = Array.length open_items in
  let pooled f = List.concat_map f rs in
  let setup_samples = List.map (fun r -> r.setup) rs @ extra_setups in
  let floats l = J.List (List.map num l) in
  let setup_cpu = List.map (fun (s : Wire.setup) -> s.cpu_s) setup_samples in
  let setup_wall = List.map (fun (s : Wire.setup) -> s.wall_s) setup_samples in
  {
    correct = mismatches = 0;
    attempted;
    failed = errors + mismatches;
    metrics =
      [
        ("setup_s", median setup_cpu);
        ("server_rss_mb", median (List.map (fun r -> r.rss) rs));
        ( "cpu_ms_per_req",
          median (pooled (fun r -> window_cpu_per_req r.op ~n ~windows)) );
      ];
    report =
      [
        ("offered_rps", J.Float rate);
        ("rounds", J.Int rounds);
        ("capacity_depth_per_connection", J.Int capacity_depth);
        ("host_steal_share", J.Float steal_share);
        ("capacity_rps", num (median (pooled (fun r -> window_rates r.cl))));
        ( "read_p50_ms",
          num (median (pooled (fun r -> window_read_pcts r.op open_items ~windows 0.5))) );
        ("read_p99_ms", num (Wire.Samples.pct reads 0.99));
        ("read_samples", J.Int (Wire.Samples.count reads));
        ( "write_p50_ms",
          num (median (List.map (fun r -> Wire.Samples.pct r.op.write_ms 0.50) rs)) );
        ("write_p95_ms", num (Wire.Samples.pct writes 0.95));
        ("write_samples", J.Int (Wire.Samples.count writes));
        ("setup_wall_s", num (median setup_wall));
        ("setup_cpu_samples_s", floats setup_cpu);
        ("setup_wall_samples_s", floats setup_wall);
        ("open_loop", J.List (List.map (fun r -> phase_json r.op) rs));
        ("closed_loop", J.List (List.map (fun r -> phase_json r.cl) rs));
        ("round_rss_mb", floats (List.map (fun r -> r.rss) rs));
        ("error_rate", J.Float (float errors /. float attempted));
        ("consistency_violations", J.Int violations);
        ( "admission_denied",
          J.Int (List.fold_left (fun s r -> s + counter r.stats "server.admission.denied") 0 rs) );
        ( "overloaded",
          J.Int (List.fold_left (fun s r -> s + counter r.stats "server.rejected.overloaded") 0 rs) );
      ];
  }

(* The traced run: an untraced live pass, the in-process replay of the
   same stream, and a live pass with --runtime-events. *)
let traced_run w ~seed ~seconds ~corrupt ~files ~values ~oracle =
  let rate = Gen.rate w in
  let mixed = w = Gen.Mixed_rw in
  let open_s = seconds *. if mixed then 0.45 else 0.4 in
  let open_items =
    Gen.stream w ~seed ~tag:"o" ~values (int_of_float (rate *. open_s))
  in
  prepare oracle ~corrupt [ open_items ];
  let live ~runtime_events =
    with_server ~files ~oracle ~values ~runtime_events (fun srv ->
        let op = Wire.open_loop srv open_items ~rate ~windows:1 in
        let cpu_ms = List.nth op.cpu_marks 1 -. List.hd op.cpu_marks in
        (op, cpu_ms, Wire.stats srv))
  in
  let _, v1, (op, cpu_ms, stats) = live ~runtime_events:false in
  let r = Replay.run files open_items ~live:(Array.length open_items) in
  let _, v2, (op', cpu_ms', stats') = live ~runtime_events:true in
  let phases = [ op; op' ] in
  let mismatches = sum_tallies phases (fun t -> t.mismatches) + v1 + v2 in
  let errors = sum_tallies phases (fun t -> t.errors) in
  let attempted = sum_tallies phases (fun t -> t.attempted) + 2 in
  let completed (t : Wire.tally) = float (max 1 (t.correct + t.errors + t.mismatches)) in
  let ratio a b = if b = 0 then 0. else float a /. float b in
  let live_mean_us = 1000. *. Wire.Samples.mean op.read_service_ms in
  let inprocess_us = r.read_us /. float (max 1 r.live_reads) in
  let denied = counter stats "server.admission.denied" in
  let requests = denied + counter stats "server.accepted" in
  let kreq = float (max 1 r.requests) /. 1000. in
  let m = Replay.mean_us and words = Replay.mean_words in
  {
    correct = mismatches = 0;
    attempted;
    failed = errors + mismatches;
    metrics =
      [
        ("sserver.decode_us", m r.decode);
        ("sserver.encode_us", m r.encode);
        ("sserver.encode.minor_words", words r.encode);
        ("sserver.reply_bytes", ratio r.reply_bytes r.reads);
        ("sserver.live_mean_us", live_mean_us);
        ("sserver.inprocess_us", inprocess_us);
        ("sserver.residual_us", live_mean_us -. inprocess_us);
        ("sserver.admission_fastpath_share", ratio denied requests);
        ("sserver.requests", float requests);
        ("sserver.overloaded", float (counter stats "server.rejected.overloaded"));
        ("sxpath.parse_us", m r.parse);
        ("secview.classify_us", m r.classify);
        ("secview.translate_us", m r.translate);
        ("secview.translate_miss_us", m r.translate_miss);
        ( "secview.translate_hit_ratio",
          1. -. ratio r.translate_misses r.translate_lookups );
        ("secview.translate_lookups", float r.translate_lookups);
        ("secview.translate.minor_words", words r.translate);
        ("secview.answer_us", m r.answer_warm);
        ("secview.answer.minor_words", words r.answer_warm);
        ("secview.catalog_index_us", m r.index);
        ("secview.catalog_index_builds", float r.index.n);
        ("splan.compile_us", m r.compile);
        ("splan.plan_hit_ratio", ratio r.plan_hits r.plan_lookups);
        ("splan.plan_lookups", float r.plan_lookups);
        ("splan.examined_per_result", ratio r.examined r.rows);
        ("splan.result_rows", float r.rows);
        ("sxml.print_us", m r.print);
        ("sxml.print.minor_words", words r.print);
        ("supdate.parse_us", m r.uparse);
        ("supdate.check_us", m r.check);
        ("supdate.check.minor_words", words r.check);
        ("supdate.commit_us", m r.commit);
        ("supdate.admit_ratio", ratio r.admitted r.writes);
        ("supdate.writes", float r.writes);
        ("gc.minor_words_per_req", r.minor_words /. float (max 1 r.requests));
        ("gc.minor_collections_per_kreq", float r.minor_gcs /. kreq);
        ("gc.major_collections_per_kreq", float r.major_gcs /. kreq);
        ("gc.replay_requests", float r.requests);
        ("gc.pause_p99_ms", gc_pause_p99 stats');
        ("loadgen.lag_p99_ms", Wire.Samples.pct op.lag_ms 0.99);
        ("error_rate", float errors /. float attempted);
        ( "trace.overhead_read_p50_ms",
          Wire.Samples.pct op'.read_ms 0.5 -. Wire.Samples.pct op.read_ms 0.5 );
        ( "trace.overhead_cpu_ms_per_req",
          (cpu_ms' /. completed op') -. (cpu_ms /. completed op) );
      ];
    report =
      [
        ("offered_rps", J.Float rate);
        ("untraced", J.Obj [ ("open_loop", phase_json op) ]);
        ("traced", J.Obj [ ("open_loop", phase_json op') ]);
        ("untraced_read_p50_ms", num (Wire.Samples.pct op.read_ms 0.5));
        ("traced_read_p50_ms", num (Wire.Samples.pct op'.read_ms 0.5));
        ("replayed_requests", J.Int r.requests);
        ("consistency_violations", J.Int (v1 + v2));
      ];
  }

let run ~workload ~seed ~seconds ~trace ~corrupt =
  let w =
    match List.assoc_opt workload Gen.workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  with_run_dir ~name:workload ~seed (fun dir ->
      let values = Gen.write_values ~seed in
      let files = Gen.write_files ~dir ~seed in
      let oracle = Oracle.create files ~values in
      let body = if trace then traced_run else timed_run in
      body w ~seed ~seconds ~corrupt ~files ~values ~oracle)

let meta ~workload ~seed ~seconds ~trace =
  J.Obj
    [
      ("workload", J.String workload); ("seed", J.Int seed);
      ("seconds", J.Float seconds); ("trace", J.Bool trace);
      ("nproc", J.Int nproc); ("domains", J.Int domains);
      ( "server_cpus",
        match !Wire.server_cpus with Some (_, c) -> J.String c | None -> J.Null );
      ("ocaml", J.String Sys.ocaml_version); ("setups", J.Int setups);
    ]

let result_json o ~trace =
  let units = if trace then per_layer else end_to_end in
  J.Obj
    [
      ("correct", J.Bool o.correct);
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit) ->
               ( name,
                 J.Obj
                   [
                     ("value", num (List.assoc name o.metrics));
                     ("unit", J.String unit);
                   ] ))
             units) );
    ]

(* [J.to_string] keeps six significant digits; the result line carries
   every measured digit, so floats are spelled with [%.15g]. *)
let rec to_line = function
  | J.Float f -> Printf.sprintf "%.15g" f
  | J.List l -> "[" ^ String.concat "," (List.map to_line l) ^ "]"
  | J.Obj l ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> J.to_string (J.String k) ^ ":" ^ to_line v) l)
    ^ "}"
  | j -> J.to_string j

(* ---- self-test ------------------------------------------------------ *)

(* Every metric BENCHMARK.json names is printed, with its unit, on
   every workload in both modes; and a corrupted oracle entry fails
   the run. *)
let self_test () =
  let bench =
    match J.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let declared key =
    match J.member key bench with
    | Some (J.List l) ->
      List.map
        (fun m ->
          ( Option.get (Option.bind (J.member "name" m) J.to_string_opt),
            Option.get (Option.bind (J.member "unit" m) J.to_string_opt) ))
        l
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL %s\n%!" s) fmt
  in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun trace ->
          let o = run ~workload ~seed:1 ~seconds:6. ~trace ~corrupt:false in
          let want = declared (if trace then "per_layer" else "end_to_end") in
          let printed =
            match J.member "metrics" (result_json o ~trace) with
            | Some (J.Obj l) ->
              List.map
                (fun (n, v) ->
                  (n, Option.get (Option.bind (J.member "unit" v) J.to_string_opt)))
                l
            | _ -> []
          in
          if List.sort compare want <> List.sort compare printed then
            fail "%s trace=%b: printed metrics differ from BENCHMARK.json"
              workload trace;
          List.iter
            (fun (n, v) ->
              if Float.is_nan v then fail "%s trace=%b: %s is not a number" workload trace n)
            o.metrics;
          if not trace then
            List.iter
              (fun n ->
                let writes = String.starts_with ~prefix:"write_" n in
                match (List.assoc_opt n o.report, writes && workload <> "mixed-rw") with
                | Some (J.Float _), false | Some J.Null, true -> ()
                | _ -> fail "%s: the report's %s is wrong" workload n)
              wall_clock;
          if not o.correct then fail "%s trace=%b: oracle mismatch" workload trace;
          let o = run ~workload ~seed:1 ~seconds:3. ~trace ~corrupt:true in
          if o.correct then
            fail "%s trace=%b: corrupted oracle entry went unnoticed" workload trace;
          Printf.printf "ok %s trace=%b\n%!" workload trace)
        [ false; true ])
    Gen.workloads;
  if !failures > 0 then exit 1;
  print_endline "self-test passed"

(* ---- command line --------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME read-hot | read-point | mixed-rw");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--self-test", Arg.Set self, " check metric coverage and the oracle");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen --workload NAME --seed N --seconds S --trace 0|1";
  Wire.place ~domains;
  if !self then self_test ()
  else begin
    let trace = !trace = 1 in
    let o =
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
        ~corrupt:false
    in
    print_endline
      (J.to_string
         (J.Obj
            (("meta", meta ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace)
            :: o.report)));
    print_endline (to_line (result_json o ~trace));
    if not o.correct then exit 1
  end
