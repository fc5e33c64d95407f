(** The `tixd` TCP front end.

    A listener thread accepts connections; each connection gets its
    own (lightweight) thread that reads newline-delimited JSON
    requests, submits them to the {!Scheduler}'s domain pool, and
    writes one response line per request, in order. Blocking on a
    promise parks only the connection thread — evaluation parallelism
    comes from the worker domains, so many idle connections cost
    nothing and concurrent requests from different connections run
    truly in parallel. *)

type t

val start :
  ?host:string -> ?port:int -> ?updates:Updates.t -> Scheduler.t -> t
(** Bind and start serving. [port] defaults to 0 (kernel-assigned —
    read it back with {!port}); [host] to ["127.0.0.1"]. With
    [updates], the mutation ops ([insert]/[delete]/[update]/
    [checkpoint]) are served; without it they are rejected with
    [read_only]. Raises [Unix.Unix_error] when the address cannot be
    bound. *)

val start_handler :
  ?name:string ->
  ?host:string ->
  ?port:int ->
  (Protocol.request -> Json.t) ->
  t
(** The generic line-serving core behind {!start}: bind, accept, and
    answer each parsed request line through the given dispatch. The
    distributed coordinator ([tixq]) serves its scatter-gather
    dispatch through this, so coordinator and backend speak one wire
    protocol. [name] labels the startup log line. *)

val max_line_bytes : int
(** The longest request line served, 16 MiB. A longer line is read to
    its newline and dropped, answered with [bad_request] "request line
    exceeds N bytes"; the connection stays open. *)

val port : t -> int
val connections : t -> int
(** Connections accepted so far. *)

val handle : ?updates:Updates.t -> Scheduler.t -> Protocol.request -> Json.t
(** The server's request dispatch, exposed so tests and in-process
    clients can drive the full protocol without a socket. *)

val stop : t -> unit
(** Close the listening socket and join the accept thread. Open
    connections are shut down. Idempotent. Does not shut down the
    scheduler (the caller owns it). *)
