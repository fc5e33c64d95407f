(** The `tixd` wire protocol: newline-delimited JSON over TCP.

    One request object per line in, one response object per line out,
    in order. Ops:

    {v
    {"op":"query","q":"...","k":10,"mode":"auto|engine|interp"}
    {"op":"explain","q":"..."}         -> {"ok":true,"plan":"..."}
    {"op":"search","terms":["a","b"],"method":"termjoin","complex":false,"k":10}
    {"op":"phrase","phrase":"search engine","comp3":false,"k":10}
    {"op":"ranked","terms":["a","b"],"k":10}
    {"op":"prepare","q":"..."}         -> {"ok":true,"id":1}
    {"op":"execute","id":1,"k":10}
    {"op":"insert","name":"doc.xml","xml":"<a>...</a>"}
    {"op":"delete","name":"doc.xml"}
    {"op":"update","name":"doc.xml","xml":"<a>...</a>"}
    {"op":"checkpoint"}                -> {"ok":true,"path":...,"generation":g}
    {"op":"checkpoint","wait":false}   -> {"ok":true,"started":true}
    {"op":"stats"}
    {"op":"health"}
    v}

    Every request may carry ["timeout"] (seconds), ["max_steps"] and
    ["max_results"] — they tighten the server's per-query governor —
    and executing ops accept ["trace":true] (EXPLAIN ANALYZE: the
    response gains a ["trace"] span tree and the result cache is
    bypassed) and ["parallelism":n] (intra-query parallel execution
    across up to [n] domains, clamped to the server's
    [--parallelism] cap; results are identical to sequential).
    Responses are [{"ok":true,...}] or
    [{"ok":false,"error":{"code":c,"message":m}}].

    The encoders here are the single source of structured output: the
    TCP server, [tixdb client] and [tixdb query --format json] all
    share them. *)

type request =
  | Exec of {
      req : Engine.request;
      k : int option;
      limits : Core.Governor.limits;
      trace : bool;
      parallelism : int option;
      theta : float option;
          (** ranked max-score threshold hint: a cutoff already proven
              by another shard, relayed by a coordinator for
              cross-shard pruning ({!Engine.exec}'s [?theta]) *)
    }
  | Explain of { q : string }
  | Prepare of { q : string }
  | Execute of {
      id : int;
      k : int option;
      limits : Core.Governor.limits;
      trace : bool;
      parallelism : int option;
    }
  | Insert of { name : string; xml : string }
  | Remove of { name : string }
  | UpdateDoc of { name : string; xml : string }
  | Checkpoint of { wait : bool }
      (** [wait = false] requests a background checkpoint and
          acknowledges immediately; the default waits for the merged
          image to be installed *)
  | Stats
  | Health

val parse_request : string -> (request, string) result
(** One line of JSON; [Error] names the missing/ill-typed field. *)

val request_to_json : request -> Json.t
(** Inverse of {!parse_request} (used by the client). *)

(** {1 Responses} *)

val result_to_json :
  ?include_timings:bool -> ?extra:(string * Json.t) list -> Engine.result -> Json.t
(** [{"ok":true,"total":n,"cached":b,"steps_used":s,"results":[...],...}].
    Timings default to included; the stress test compares responses
    with timings stripped. [extra] appends caller fields (the
    distributed coordinator adds ["degraded"]/["shards"]). *)

val result_of_json : Json.t -> (Engine.result, string) result
(** The inverse of {!result_to_json}:
    [result_of_json (result_to_json r) = Ok r]. Fields it does not
    know (an [extra]'s) are ignored. [Error] for an error response,
    an ok response of another op (it has no ["total"] or
    ["results"]) and an ill-typed field. A distributed coordinator
    decodes shard answers with it, and [tixdb client] its
    responses. *)

val rows_to_json : Engine.row list -> Json.t

val span_to_json : Core.Trace.span -> Json.t
(** [{"op":name,"input":i,"output":o,"steps":s,"elapsed_ns":ns,
     "attrs":{...},"children":[...]}] — unknown ([-1]) cardinalities
    and empty attrs/children are omitted. *)

val ok_plan_to_json : string -> Json.t
(** [{"ok":true,"plan":p}] — the [explain] response. *)

val error_to_json : code:string -> message:string -> Json.t
val engine_error_to_json : Engine.error -> Json.t

val ok_prepared_to_json : int -> Json.t

val ok_mutation_to_json : op:string -> name:string -> generation:int -> Json.t
(** [{"ok":true,"op":o,"name":n,"generation":g}] — the acknowledged
    mutation is WAL-durable and generation [g] serves it. *)

val ok_checkpoint_to_json : path:string -> generation:int -> Json.t
(** [{"ok":true,"path":p,"generation":g}]. *)

val ok_checkpoint_started_to_json : unit -> Json.t
(** [{"ok":true,"op":"checkpoint","started":true}] — the async
    acknowledgement of [{"op":"checkpoint","wait":false}]. *)

val health_to_json :
  ?updatable:bool ->
  ?checkpoint_in_progress:bool ->
  ?verification:string ->
  ?shards:Json.t ->
  generation:int ->
  source:string ->
  unit ->
  Json.t
(** [updatable] reports whether the server accepts mutation ops
    (i.e. was started with a WAL directory); defaults to [false].
    [checkpoint_in_progress] (emitted only when given) reports a
    pending or running background checkpoint. [verification] surfaces the image checksum status of a lazily
    verified open (["verified"|"pending"|"failed"]); [shards] lets a
    coordinator attach its per-shard health aggregation. Both are
    omitted when absent. *)

val stats_to_json : ?updates:Updates.t -> Scheduler.t -> Json.t
(** Database, pager, scheduler, cache and metrics statistics; with
    [updates], also WAL/delta/checkpoint counters, and when the
    snapshot carries fault/delta state, those sections too. *)
