(* tixq: the distributed TIX query coordinator.

   Loads a shard manifest (written by `tixdb shard`), connects to the
   backend tixd processes it names, and serves the same NDJSON
   protocol on its own port: clients cannot tell a coordinator from a
   single-node server, except that answers are gathered across every
   shard. `tixdb client` works unchanged against it. *)

open Cmdliner

let () = Front.init_logs ()

let serve manifest host port window connect_timeout request_timeout retries =
  let map =
    match Dist.Shard_map.load manifest with
    | Ok map -> map
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1
  in
  let client =
    Dist.Client.create ~connect_timeout ~request_timeout ~retries ()
  in
  let coordinator =
    Dist.Coordinator.create ~window ~client ~source:manifest map
  in
  let server =
    Service.Server.start_handler ~name:"tixq" ~host ~port
      (Dist.Coordinator.handle coordinator)
  in
  Format.printf "tixq: coordinating %d shard(s), %d document(s) on %s:%d@."
    (Dist.Shard_map.shard_count map)
    (Dist.Shard_map.total_docs map)
    host
    (Service.Server.port server);
  (* flush so scripts that spawned us can scrape the port *)
  Format.pp_print_flush Format.std_formatter ();
  let running = Atomic.make true in
  let quit _ = Atomic.set running false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  while Atomic.get running do
    Unix.sleepf 0.2
  done;
  Format.printf "tixq: shutting down@.";
  Service.Server.stop server;
  Dist.Client.close client

let manifest_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"MANIFEST"
        ~doc:"Shard manifest (JSON, written by $(b,tixdb shard)).")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(
    value & opt int 7071
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port (0 asks the kernel for a free one).")

let window_arg =
  Arg.(
    value & opt int 0
    & info [ "window" ] ~docv:"N"
        ~doc:
          "Ranked fan-out wave size: contact N shards at a time, relaying \
           the gathered top-k threshold to later waves so they can prune. 0 \
           (the default) contacts every shard in one wave — lowest latency, \
           no cross-shard pruning.")

let connect_timeout_arg =
  Arg.(
    value & opt float 2.0
    & info [ "connect-timeout" ] ~docv:"SECONDS"
        ~doc:"Dial timeout per backend connection attempt.")

let request_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "request-timeout" ] ~docv:"SECONDS"
        ~doc:"Per-request response deadline against each backend.")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts per backend request, each on a fresh connection \
           (a restarted backend is invisible within the retry budget). \
           Replica failover is separate and always on.")

let () =
  let info =
    Cmd.info "tixq" ~version:"1.0.0"
      ~doc:
        "Distributed TIX query coordinator: scatter-gather federation over \
         document-sharded tixd backends"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const serve $ manifest_arg $ host_arg $ port_arg $ window_arg
            $ connect_timeout_arg $ request_timeout_arg $ retries_arg)))
