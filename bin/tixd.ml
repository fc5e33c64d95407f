(* tixd: the resident TIX query service.

   Loads one database (XML documents or a saved .tix image), pins it
   as an immutable snapshot, and serves the newline-delimited JSON
   protocol (lib/service/protocol.mli) over TCP with a fixed pool of
   domain workers. `tixdb client` is the matching command-line
   client. *)

open Cmdliner

let () = Front.init_logs ()

let open_live ?base ?wal_batch ~dir () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  match Store.Live.open_dir ?base ?wal_batch ~dir () with
  | Error e ->
    Format.eprintf "error: %s: %s@." dir (Store.Live.error_to_string e);
    exit 1
  | Ok opened ->
    let recovery = opened.Store.Live.recovery in
    let replay = opened.Store.Live.replay in
    let records = List.length recovery.Store.Wal.records in
    if records > 0 || recovery.Store.Wal.truncated_bytes > 0 then
      Format.printf
        "tixd: recovered %d WAL record(s): %d applied, %d skipped, %d torn \
         byte(s) truncated@."
        records replay.Store.Delta.applied replay.Store.Delta.skipped
        recovery.Store.Wal.truncated_bytes;
    opened

let serve paths host port workers queue_depth parallelism plan_cache
    result_cache timeout max_steps max_results slow_query skip_bad wal_dir
    wal_batch ck_every_docs lazy_verify =
  if paths = [] && wal_dir = None then begin
    Format.eprintf
      "error: nothing to serve — give XML documents, a .tix image, or \
       --wal-dir@.";
    exit 1
  end;
  let verify = if lazy_verify then `Lazy else `Eager in
  let base =
    match paths with
    | [] -> None
    | paths -> Some (Front.load_files ~skip_bad ~verify paths)
  in
  let base_label = match paths with [ p ] -> p | _ -> "<multiple>" in
  Service.Engine.set_slow_query_threshold slow_query;
  let opened =
    Option.map
      (fun dir -> open_live ?base ~wal_batch ~dir ())
      wal_dir
  in
  let source, db =
    match opened with
    | None -> (base_label, Option.get base)
    | Some o ->
      let source =
        match o.Store.Live.base_source with
        | Store.Live.From_checkpoint path -> path
        | Store.Live.Provided -> base_label
        | Store.Live.Empty -> "<empty>"
      in
      (source, Store.Live.base o.Store.Live.live)
  in
  let feedback =
    Option.bind wal_dir (fun dir -> Service.Updates.load_feedback ~dir)
  in
  let snapshot =
    match Service.Engine.of_db ~source ?feedback db with
    | Ok s -> s
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1
  in
  (* recovered-but-not-yet-checkpointed WAL records live in the delta:
     publish them with the very first snapshot *)
  let snapshot =
    match opened with
    | None -> snapshot
    | Some o ->
      Service.Engine.with_delta snapshot (Store.Live.delta o.Store.Live.live)
  in
  let limits =
    Core.Governor.limits ?max_steps ?timeout_s:timeout ?max_results ()
  in
  let scheduler =
    Service.Scheduler.create ?workers ?queue_depth ~limits
      ~max_parallelism:parallelism ~plan_cache_capacity:plan_cache
      ~result_cache_capacity:result_cache snapshot
  in
  let updates =
    Option.map
      (fun o ->
        Service.Updates.create ?every_docs:ck_every_docs
          ~live:o.Store.Live.live ~scheduler ())
      opened
  in
  let server = Service.Server.start ~host ~port ?updates scheduler in
  let stats = Service.Scheduler.stats scheduler in
  Format.printf "tixd: serving %s on %s:%d (workers=%d queue=%d%s)@." source
    host
    (Service.Server.port server)
    stats.Service.Scheduler.workers stats.Service.Scheduler.queue_depth
    (match wal_dir with
    | Some dir -> Printf.sprintf " wal-dir=%s" dir
    | None -> "");
  (* flush so scripts that spawned us can scrape the port *)
  Format.pp_print_flush Format.std_formatter ();
  let running = Atomic.make true in
  let quit _ = Atomic.set running false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  while Atomic.get running do
    Unix.sleepf 0.2
  done;
  Format.printf "tixd: shutting down@.";
  Service.Server.stop server;
  Option.iter Service.Updates.shutdown updates;
  Service.Scheduler.shutdown scheduler;
  Option.iter (fun o -> Store.Live.close o.Store.Live.live) opened

let paths_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "XML documents to load, or a single saved database image (*.tix). \
           May be omitted when $(b,--wal-dir) names a directory with a \
           checkpoint.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(
    value & opt int 7070
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port (0 asks the kernel for a free one).")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:
          "Worker domains (default: recommended domain count - 1, capped at \
           8).")

let queue_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"DEPTH"
        ~doc:
          "Submission queue bound; a full queue answers with an overloaded \
           error (default 4 x workers).")

let parallelism_arg =
  Arg.(
    value & opt int 1
    & info [ "parallelism" ] ~docv:"N"
        ~doc:
          "Cap on intra-query parallelism: a request asking for \
           \"parallelism\":n runs its posting-list scan across up to \
           min(n, N) extra domains. 1 (the default) disables the parallel \
           executor.")

let plan_cache_arg =
  Arg.(
    value & opt int 256
    & info [ "plan-cache" ] ~docv:"N"
        ~doc:"Compiled-plan LRU capacity (0 disables).")

let result_cache_arg =
  Arg.(
    value & opt int 1024
    & info [ "result-cache" ] ~docv:"N"
        ~doc:"Top-k result LRU capacity (0 disables).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Default wall-clock budget per query (requests may tighten it).")

let max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N" ~doc:"Default step budget per query.")

let max_results_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-results" ] ~docv:"N"
        ~doc:"Default result-cardinality cap per query.")

let slow_query_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-query" ] ~docv:"SECONDS"
        ~doc:
          "Log a warning (with the span tree, when the request was traced) \
           for every query slower than this many seconds, and count it in \
           the queries.slow metric.")

let skip_bad_arg =
  Arg.(
    value & flag
    & info [ "skip-bad" ]
        ~doc:"Skip documents that fail to parse or ingest instead of aborting.")

let wal_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal-dir" ] ~docv:"DIR"
        ~doc:
          "Serve updatable: accept insert/delete/update/checkpoint ops, \
           logging each mutation to DIR/wal.log before acknowledging it. On \
           start, a checkpoint image in DIR wins over the FILE arguments and \
           the WAL's committed records are replayed (torn tails are \
           truncated). Created if missing.")

let wal_batch_arg =
  Arg.(
    value & opt int 64
    & info [ "wal-batch" ] ~docv:"N"
        ~doc:
          "Group-commit batch cap: up to N concurrently queued mutations \
           share one WAL write and fsync. 1 restores per-op fsync.")

let ck_every_docs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every-docs" ] ~docv:"N"
        ~doc:
          "Trigger a background checkpoint automatically once the delta \
           holds N documents + tombstones.")

let lazy_verify_arg =
  Arg.(
    value & flag
    & info [ "lazy-verify" ]
        ~doc:
          "Serve a .tix image before its checksums are verified: the \
           structural frame is checked eagerly, the CRC pass runs on a \
           background thread, and $(b,health) reports \
           \"verification\":\"pending\" until it lands (then \"verified\" \
           or \"failed\"). Cuts time-to-first-query on large images.")

let () =
  let info =
    Cmd.info "tixd" ~version:"1.0.0"
      ~doc:"Resident concurrent TIX query service (NDJSON over TCP)"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const serve $ paths_arg $ host_arg $ port_arg $ workers_arg
            $ queue_arg $ parallelism_arg $ plan_cache_arg $ result_cache_arg
            $ timeout_arg $ max_steps_arg $ max_results_arg $ slow_query_arg
            $ skip_bad_arg $ wal_dir_arg $ wal_batch_arg $ ck_every_docs_arg
            $ lazy_verify_arg)))
