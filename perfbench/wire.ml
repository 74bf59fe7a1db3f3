(* The live side: the server as a child process, the client
   connections, the open and closed loops, and the /proc sampling —
   all from one thread of this process. *)

let now () = Int64.to_float (Sobs.Clock.monotonic ()) *. 1e-9

(* ---- growable float samples ---------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let concat ts =
    let all = create () in
    List.iter
      (fun t ->
        for i = 0 to t.n - 1 do
          add all t.a.(i)
        done)
      ts;
    all

  (* nearest-rank percentile; nan when empty *)
  let pct t p =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      s.(max 0 (min (t.n - 1) (int_of_float (ceil (p *. float t.n)) - 1)))
    end

  let mean t =
    if t.n = 0 then nan
    else begin
      let s = ref 0. in
      for i = 0 to t.n - 1 do
        s := !s +. t.a.(i)
      done;
      !s /. float t.n
    end
end

(* ---- per-phase tallies ---------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable correct : int;  (** oracle-correct replies *)
  mutable errors : int;  (** replies that were not ok *)
  mutable mismatches : int;  (** ok replies the oracle disagrees with *)
  read_ms : Samples.t;  (** from when each read was due *)
  read_service_ms : Samples.t;  (** from when each read was sent *)
  write_ms : Samples.t;
  lag_ms : Samples.t;  (** how late each request was sent *)
  done_at : Samples.t;  (** when each correct reply arrived *)
  by_index : float array;
      (** open loop: latency of request [i] from when it was due, nan
          unless its reply was correct *)
  mutable cpu_marks : float list;
      (** open loop: the server's CPU ms at each window boundary *)
  mutable elapsed : float;
}

let tally ?(n = 0) () =
  {
    attempted = 0; correct = 0; errors = 0; mismatches = 0;
    read_ms = Samples.create (); read_service_ms = Samples.create ();
    write_ms = Samples.create (); lag_ms = Samples.create ();
    done_at = Samples.create (); by_index = Array.make n nan; cpu_marks = [];
    elapsed = 0.;
  }

(* ---- connections ---------------------------------------------------- *)

type pending = {
  idx : int;  (** position in the phase's stream *)
  it : Gen.item;
  due : float;
  sent : float;
  after_write : int;  (** last write sent on this connection, or -1 *)
  wid : int;  (** this write's id, or -1 *)
}

type conn = {
  fd : Unix.file_descr;
  inflight : pending Queue.t;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable last_write : int;
}

type write_log = {
  w_state : int;
  w_sent : float;
  mutable w_versions : (int * int) option;  (** set once acknowledged *)
}

type read_log = {
  r_after : int;
  r_recv : float;
  r_mask : int;
}

type server = {
  pid : int;
  dir : string;
  oracle : Oracle.t;
  mutable conns : conn list;
  mutable writes : write_log array;
  mutable n_writes : int;
  mutable reads : read_log list;  (** reads answered once writes began *)
}

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Read what is available into the connection's buffer. *)
let fill c =
  if Bytes.length c.buf - c.len < 65536 then begin
    let b = Bytes.create (2 * Bytes.length c.buf + 65536) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then failwith "server closed the connection";
  c.len <- c.len + n

(* Hand every complete line in the buffer to [k buf off len], then
   drop them. *)
let drain_lines c k =
  let start = ref 0 in
  let rec scan i =
    if i < c.len then
      if Bytes.unsafe_get c.buf i = '\n' then begin
        k c.buf !start (i - !start);
        start := i + 1;
        scan (i + 1)
      end
      else scan (i + 1)
  in
  scan 0;
  if !start > 0 then begin
    Bytes.blit c.buf !start c.buf 0 (c.len - !start);
    c.len <- c.len - !start
  end

let blocking_line c =
  let line = ref None in
  while !line = None do
    fill c;
    drain_lines c (fun buf off len ->
        if !line = None then line := Some (Bytes.sub_string buf off len)
        else failwith "unexpected extra reply")
  done;
  Option.get !line

let request c json =
  send_all c.fd (Sobs.Json.to_string json ^ "\n");
  blocking_line c

(* ---- the server process --------------------------------------------- *)

let children = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () -> List.iter reap !children);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* ---- CPU placement -------------------------------------------------- *)

(* The CPUs this process may run on, from [Cpus_allowed_list]. *)
let allowed_cpus =
  let range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
    | _ -> []
  in
  try
    In_channel.with_open_bin "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"Cpus_allowed_list:")
    |> fun l -> String.sub l 18 (String.length l - 18)
    |> String.split_on_char ',' |> List.concat_map range
  with Not_found | Failure _ | Sys_error _ ->
    List.init (Domain.recommended_domain_count ()) Fun.id

let taskset =
  List.find_opt Sys.file_exists [ "/usr/bin/taskset"; "/bin/taskset" ]

(* The server's CPUs, as a taskset list, once {!place} has run. *)
let server_cpus = ref None

(* Give the server's [domains] the first CPUs and this process the
   last one, when there are enough CPUs and taskset is installed:
   left to the scheduler, whether the two shared a CPU decided a whole
   server's speed. *)
let place ~domains =
  match taskset with
  | Some path when List.length allowed_cpus > domains ->
    let own = List.nth allowed_cpus (List.length allowed_cpus - 1) in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process path
        [| "taskset"; "-p"; "-c"; string_of_int own; string_of_int (Unix.getpid ()) |]
        Unix.stdin null null
    in
    ignore (Unix.waitpid [] pid);
    Unix.close null;
    server_cpus :=
      Some
        ( path,
          String.concat ","
            (List.map string_of_int (List.filteri (fun i _ -> i < domains) allowed_cpus)) )
  | _ -> ()

let socket_path dir = Filename.concat dir "sv.sock"

let connect ~pid ~dir =
  let give_up = now () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX (socket_path dir)) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (( <> ) pid) !children;
        failwith ("secview serve exited; see " ^ Filename.concat dir "serve.log"));
      if now () > give_up then failwith "secview serve did not start";
      Unix.sleepf 0.0005;
      go ()
  in
  let fd = go () in
  let c =
    { fd; inflight = Queue.create (); buf = Bytes.create 65536; len = 0;
      last_write = -1 }
  in
  let hello = request c (Sserver.Protocol.hello Gen.group) in
  if not (String.starts_with ~prefix:{|{"ok":true|} hello) then
    failwith ("hello refused: " ^ hello);
  c

let ok_reply buf off len =
  len >= 10 && Bytes.sub_string buf off 10 = {|{"ok":true|}

(* ---- /proc ---------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

(* The server's CPU time in milliseconds: utime + stime of every
   thread, read from the per-thread scheduler statistics (nanosecond
   resolution; /proc/<pid>/stat counts in 10 ms ticks). *)
let cpu_ms pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc +. (Scanf.sscanf s "%f" Fun.id /. 1e6)
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* Host time stolen from the machine's CPUs, in 10 ms ticks (the
   steal column of /proc/stat): the report carries it so a noisy run
   can be told from a slow server. *)
let steal_ticks () =
  Scanf.sscanf (read_file "/proc/stat") "cpu %_d %_d %_d %_d %_d %_d %_d %d"
    Fun.id

let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)

(* A server's set-up, up to its first oracle-correct reply: the
   elapsed time, and the CPU time the server process spent.  DTD and
   policy parsing, view derivation, the lazy document parse and index
   build all land inside. *)
type setup = { wall_s : float; cpu_s : float }

(* Spawn [secview serve] and time its set-up. *)
let start ~exe ~(files : Gen.files) ~domains ~runtime_events ~oracle ~values =
  let dir = files.dir in
  (try Sys.remove (socket_path dir) with Sys_error _ -> ());
  let args =
    [ exe; "serve"; "--dtd"; files.dtd; "--group"; Gen.group ^ "=" ^ files.spec;
      "--doc"; "ward=" ^ files.doc; "--socket"; socket_path dir;
      "--domains"; string_of_int domains ]
    @ if runtime_events then [ "--runtime-events" ] else []
  in
  let env =
    Array.append
      [| "OCAML_RUNTIME_EVENTS_DIR=" ^ dir |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS" v))
            (Array.to_list (Unix.environment ()))))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = now () in
  let args, prog =
    match !server_cpus with
    | Some (path, cpus) -> ("taskset" :: "-c" :: cpus :: args, path)
    | None -> (args, exe)
  in
  let pid = Unix.create_process_env prog (Array.of_list args) env null log log in
  children := pid :: !children;
  Unix.close null;
  Unix.close log;
  let c = connect ~pid ~dir in
  let it = Gen.setup_item ~values in
  send_all c.fd it.line;
  let reply = blocking_line c in
  let b = Bytes.of_string reply in
  if Oracle.check_read oracle it b 0 (Bytes.length b) land 1 = 0 then
    failwith ("set-up reply differs from the oracle: " ^ reply);
  let wall_s = now () -. t0 in
  ( { pid; dir; oracle; conns = [ c ]; writes = [||]; n_writes = 0; reads = [] },
    { wall_s; cpu_s = cpu_ms pid /. 1000. } )

let add_conn srv = srv.conns <- srv.conns @ [ connect ~pid:srv.pid ~dir:srv.dir ]

let stats srv =
  let line = request (List.hd srv.conns) (Sserver.Protocol.simple "stats") in
  match Sobs.Json.of_string line with
  | Ok j -> j
  | Error e -> failwith ("stats reply: " ^ e)

let stop srv =
  let c = List.hd srv.conns in
  ignore (request c (Sserver.Protocol.simple "shutdown"));
  List.iter (fun c -> Unix.close c.fd) srv.conns;
  let give_up = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < give_up ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ -> reap srv.pid
    | _ -> children := List.filter (( <> ) srv.pid) !children
  in
  wait ()

(* ---- driving -------------------------------------------------------- *)

let send srv c ~idx (it : Gen.item) ~due (t : tally) =
  let sent = now () in
  let wid =
    match it.kind with
    | Gen.Write s ->
      let w = { w_state = s; w_sent = sent; w_versions = None } in
      if srv.n_writes = Array.length srv.writes then
        srv.writes <-
          Array.append srv.writes (Array.make (max 64 srv.n_writes) w);
      srv.writes.(srv.n_writes) <- w;
      srv.n_writes <- srv.n_writes + 1;
      srv.n_writes - 1
    | Gen.Read _ -> -1
  in
  Queue.push { idx; it; due; sent; after_write = c.last_write; wid } c.inflight;
  if wid >= 0 then c.last_write <- wid;
  send_all c.fd it.line;
  t.attempted <- t.attempted + 1;
  Samples.add t.lag_ms (1000. *. (sent -. due))

let on_reply srv (t : tally) ~recv p buf off len =
  let ms = 1000. *. (recv -. p.due) in
  let correct () =
    t.correct <- t.correct + 1;
    Samples.add t.done_at recv;
    if p.idx < Array.length t.by_index then t.by_index.(p.idx) <- ms
  in
  if not (ok_reply buf off len) then t.errors <- t.errors + 1
  else
    match p.it.kind with
    | Gen.Read _ ->
      let mask = Oracle.check_read srv.oracle p.it buf off len in
      let fine =
        if srv.n_writes = 0 then mask land 1 <> 0
        else begin
          srv.reads <- { r_after = p.after_write; r_recv = recv; r_mask = mask } :: srv.reads;
          mask <> 0
        end
      in
      if fine then begin
        correct ();
        Samples.add t.read_ms ms;
        Samples.add t.read_service_ms (1000. *. (recv -. p.sent))
      end
      else t.mismatches <- t.mismatches + 1
    | Gen.Write _ -> (
      match Oracle.check_write srv.oracle p.it (Bytes.sub_string buf off len) with
      | Some v ->
        srv.writes.(p.wid).w_versions <- Some v;
        correct ();
        Samples.add t.write_ms ms
      | None -> t.mismatches <- t.mismatches + 1)

(* Wait up to [timeout] seconds for replies and account for them;
   [on_done c] runs after each reply on [c]. *)
let pump srv (t : tally) ~timeout ~on_done =
  let busy = List.filter (fun c -> not (Queue.is_empty c.inflight)) srv.conns in
  if busy = [] then (if timeout > 0. then Unix.sleepf timeout)
  else
    match Unix.select (List.map (fun c -> c.fd) busy) [] [] (max 0. timeout) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      let recv = now () in
      List.iter
        (fun c ->
          if List.mem c.fd ready then begin
            fill c;
            drain_lines c (fun buf off len ->
                match Queue.take_opt c.inflight with
                | None -> failwith "reply without a request"
                | Some p ->
                  on_reply srv t ~recv p buf off len;
                  on_done c)
          end)
        busy

let drain srv t =
  let give_up = now () +. 60. in
  while
    List.exists (fun c -> not (Queue.is_empty c.inflight)) srv.conns
  do
    if now () > give_up then failwith "replies did not arrive";
    pump srv t ~timeout:1. ~on_done:ignore
  done

(* Open loop: request [i] is due at [t0 + i / rate] whatever the
   server is doing, spread round-robin over the connections, and timed
   from when it was due.  The server's CPU time is sampled when each
   of [windows] equal slices of the stream begins, and at the end. *)
let open_loop srv (items : Gen.item array) ~rate ~windows =
  let n = Array.length items in
  let t = tally ~n () in
  let conns = Array.of_list srv.conns in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float i /. rate) in
  let next = ref 0 in
  let mark () = t.cpu_marks <- cpu_ms srv.pid :: t.cpu_marks in
  let window = ref 0 in
  while !next < n do
    let tnow = now () in
    while !next < n && due !next <= tnow do
      if !window < windows && !next = !window * n / windows then begin
        mark ();
        incr window
      end;
      send srv conns.(!next mod Array.length conns) ~idx:!next items.(!next)
        ~due:(due !next) t;
      incr next
    done;
    if !next < n then pump srv t ~timeout:(due !next -. now ()) ~on_done:ignore
  done;
  drain srv t;
  mark ();
  t.cpu_marks <- List.rev t.cpu_marks;
  t.elapsed <- now () -. t0;
  t

(* Closed loop: each connection keeps [depth] requests outstanding
   for [seconds]; items are taken in order, wrapping if the server
   outruns the stream. *)
let closed_loop ?(depth = 1) srv (items : Gen.item array) ~seconds =
  let t = tally () in
  let conns = srv.conns in
  let next = ref 0 in
  let t0 = now () in
  let stop_at = t0 +. seconds in
  let issue c =
    if now () < stop_at then begin
      let tnow = now () in
      send srv c ~idx:!next items.(!next mod Array.length items) ~due:tnow t;
      incr next
    end
  in
  for _ = 1 to depth do
    List.iter issue conns
  done;
  while List.exists (fun c -> not (Queue.is_empty c.inflight)) conns do
    pump srv t ~timeout:1. ~on_done:issue
  done;
  t.elapsed <- now () -. t0;
  t

(* After the run: the acknowledged writes must form one version chain
   (the coordinator's commit order), and every read answered once
   writes began must show the state of a write committed no earlier
   than the last write its connection had sent, and sent before the
   read's reply arrived.  Returns the number of violations. *)
let consistency_violations srv =
  let acked =
    List.filter_map
      (fun i ->
        match srv.writes.(i).w_versions with
        | Some (o, n) -> Some (i, o, n)
        | None -> None)
      (List.init srv.n_writes Fun.id)
  in
  let by_old = Hashtbl.create 64 and news = Hashtbl.create 64 in
  List.iter
    (fun (i, o, n) ->
      Hashtbl.replace by_old o (i, n);
      Hashtbl.replace news n ())
    acked;
  let roots = List.filter (fun (_, o, _) -> not (Hashtbl.mem news o)) acked in
  let commit = Array.make srv.n_writes (-1) in
  let chained =
    match roots with
    | [] -> 0
    | (_, root, _) :: _ ->
      let rec walk v k =
        match Hashtbl.find_opt by_old v with
        | Some (i, n) when commit.(i) < 0 ->
          commit.(i) <- k;
          walk n (k + 1)
        | _ -> k
      in
      walk root 0
  in
  let chain_bad =
    if chained = List.length acked && Hashtbl.length by_old = chained then 0
    else 1
  in
  let read_bad r =
    let after = if r.r_after >= 0 then commit.(r.r_after) else -1 in
    let allowed = ref (if after < 0 then 1 else 0) in
    for i = 0 to srv.n_writes - 1 do
      let w = srv.writes.(i) in
      if commit.(i) >= 0 && commit.(i) >= after && w.w_sent <= r.r_recv then
        allowed := !allowed lor (1 lsl w.w_state)
    done;
    r.r_mask land !allowed = 0
  in
  chain_bad + List.length (List.filter read_bad srv.reads)
