type t = {
  sock : Unix.file_descr;
  port : int;
  handler : Protocol.request -> Json.t;
  running : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  accepted : int Atomic.t;
  conn_lock : Mutex.t;
  mutable conn_fds : Unix.file_descr list;
}

let handle ?updates scheduler (req : Protocol.request) =
  let mutation op run =
    match updates with
    | None ->
      Protocol.error_to_json ~code:"read_only"
        ~message:
          "server is read-only: start tixd with --wal-dir to accept updates"
    | Some u -> begin
      match run u with
      | Ok json -> json
      | Error e ->
        Protocol.error_to_json ~code:(Updates.error_code e)
          ~message:(Printf.sprintf "%s failed: %s" op (Updates.error_message e))
    end
  in
  let exec ?limits ?k ?theta ?trace ?parallelism request =
    match
      Scheduler.run scheduler ?limits ?k ?theta ?trace ?parallelism request
    with
    | Ok (Ok result) -> Protocol.result_to_json result
    | Ok (Error e) -> Protocol.engine_error_to_json e
    | Error e ->
      Protocol.error_to_json ~code:(Scheduler.error_code e)
        ~message:
          (match e with
          | Scheduler.Overloaded ->
            "submission queue full; retry with backoff"
          | Scheduler.Closed -> "server is shutting down")
  in
  match req with
  | Protocol.Exec { req; k; limits; trace; parallelism; theta } ->
    exec ~limits ?k ?theta ~trace ?parallelism req
  | Protocol.Explain { q } -> begin
    match Scheduler.explain scheduler q with
    | Ok plan -> Protocol.ok_plan_to_json plan
    | Error e -> Protocol.engine_error_to_json e
  end
  | Protocol.Prepare { q } -> begin
    match Scheduler.prepare scheduler q with
    | Ok id -> Protocol.ok_prepared_to_json id
    | Error e -> Protocol.engine_error_to_json e
  end
  | Protocol.Execute { id; k; limits; trace; parallelism } -> begin
    match Scheduler.prepared scheduler id with
    | Some q ->
      exec ~limits ?k ~trace ?parallelism (Engine.Query { q; mode = `Engine })
    | None ->
      Protocol.error_to_json ~code:"unknown_statement"
        ~message:(Printf.sprintf "no prepared statement %d" id)
  end
  | Protocol.Insert { name; xml } ->
    mutation "insert" (fun u ->
        Result.map
          (fun generation ->
            Protocol.ok_mutation_to_json ~op:"insert" ~name ~generation)
          (Updates.insert u ~name ~xml))
  | Protocol.Remove { name } ->
    mutation "delete" (fun u ->
        Result.map
          (fun generation ->
            Protocol.ok_mutation_to_json ~op:"delete" ~name ~generation)
          (Updates.delete u ~name))
  | Protocol.UpdateDoc { name; xml } ->
    mutation "update" (fun u ->
        Result.map
          (fun generation ->
            Protocol.ok_mutation_to_json ~op:"update" ~name ~generation)
          (Updates.update u ~name ~xml))
  | Protocol.Checkpoint { wait } ->
    mutation "checkpoint" (fun u ->
        Result.map
          (function
            | Updates.Completed (path, generation) ->
              Protocol.ok_checkpoint_to_json ~path ~generation
            | Updates.Started -> Protocol.ok_checkpoint_started_to_json ())
          (Updates.checkpoint ~wait u))
  | Protocol.Stats -> Protocol.stats_to_json ?updates scheduler
  | Protocol.Health ->
    let snap = Scheduler.snapshot scheduler in
    let verification =
      match Store.Db.verification snap.Engine.db with
      | `Verified -> "verified"
      | `Pending -> "pending"
      | `Failed _ -> "failed"
    in
    Protocol.health_to_json
      ~updatable:(Option.is_some updates)
      ?checkpoint_in_progress:
        (Option.map Updates.checkpoint_in_progress updates)
      ~verification ~generation:snap.Engine.generation
      ~source:snap.Engine.source ()

let track_conn t fd =
  Mutex.protect t.conn_lock (fun () -> t.conn_fds <- fd :: t.conn_fds)

let untrack_conn t fd =
  Mutex.protect t.conn_lock (fun () ->
      t.conn_fds <- List.filter (fun f -> f != fd) t.conn_fds)

let max_line_bytes = 16 * 1024 * 1024

(* Pass each newline-terminated line read from [fd] to [f] as [Some
   line], or as [None] when it is longer than [max_line_bytes]: such a
   line is dropped as it arrives, never held whole. A last line
   without a newline counts. Returns at end of input. *)
let iter_lines fd f =
  let chunk = Bytes.create 65536 and line = Buffer.create 256 in
  let too_long = ref false in
  let add pos len =
    if Buffer.length line + len > max_line_bytes then too_long := true;
    if !too_long then Buffer.reset line
    else Buffer.add_subbytes line chunk pos len
  in
  let finish () =
    f (if !too_long then None else Some (Buffer.contents line));
    Buffer.clear line;
    too_long := false
  in
  (* the line under way starts at [pos]; [i] looks for its newline *)
  let rec split pos i n =
    if i = n then add pos (n - pos)
    else if Bytes.get chunk i = '\n' then begin
      add pos (i - pos);
      finish ();
      split (i + 1) (i + 1) n
    end
    else split pos (i + 1) n
  in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> if !too_long || Buffer.length line > 0 then finish ()
    | n ->
      split 0 0 n;
      loop ()
  in
  loop ()

let serve_connection t fd =
  let oc = Unix.out_channel_of_descr fd in
  let respond line =
    let json =
      match line with
      | None ->
        Protocol.error_to_json ~code:"bad_request"
          ~message:
            (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)
      | Some line -> begin
        match Protocol.parse_request line with
        | Ok req -> t.handler req
        | Error msg -> Protocol.error_to_json ~code:"bad_request" ~message:msg
      end
    in
    output_string oc (Json.to_string json);
    output_char oc '\n';
    flush oc
  in
  (try iter_lines fd (function Some "" -> () | line -> respond line)
   with _ -> ());
  untrack_conn t fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t () =
  while Atomic.get t.running do
    match Unix.accept t.sock with
    | fd, _addr ->
      Atomic.incr t.accepted;
      track_conn t fd;
      ignore (Thread.create (fun () -> serve_connection t fd) ())
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      ->
      if Atomic.get t.running then Thread.yield ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* The generic line-serving core: any [Protocol.request -> Json.t]
   dispatch behind the accept loop. The scheduler-backed [start] and
   the distributed coordinator ([tixq]) both serve through this, so
   the wire behaviour — framing, error shape, connection lifecycle —
   is identical at every tier. *)
let start_handler ?(name = "tixd") ?(host = "127.0.0.1") ?(port = 0) handler =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (try Unix.bind sock addr
   with e ->
     Unix.close sock;
     raise e);
  Unix.listen sock 64;
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let t =
    {
      sock;
      port = actual_port;
      handler;
      running = Atomic.make true;
      accept_thread = None;
      accepted = Atomic.make 0;
      conn_lock = Mutex.create ();
      conn_fds = [];
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  Logs.info (fun m -> m "%s listening on %s:%d" name host actual_port);
  t

let start ?host ?port ?updates scheduler =
  start_handler ?host ?port (handle ?updates scheduler)

let port t = t.port
let connections t = Atomic.get t.accepted

let stop t =
  if Atomic.compare_and_set t.running true false then begin
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (match t.accept_thread with
    | Some th ->
      Thread.join th;
      t.accept_thread <- None
    | None -> ());
    let fds = Mutex.protect t.conn_lock (fun () -> t.conn_fds) in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      fds
  end
