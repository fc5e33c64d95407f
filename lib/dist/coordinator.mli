(** Scatter-gather query federation over document-sharded backends.

    The coordinator speaks the same NDJSON protocol as a single
    [tixd] — {!handle} plugs straight into
    {!Service.Server.start_handler} — and answers every read op by
    fanning out to the shards of a {!Shard_map.t}. It decodes each
    shard's answer with {!Service.Protocol.result_of_json}, lifts its
    document ids to the global space ([lo + local]) and merges by the
    single node's own rules, so the answer is the one a single node
    gives over the whole collection, ties included:

    - every shard's rows go into one {!Core.Top_k} heap ordered as
      {!Service.Engine.compare_row} orders rows. It keeps k rows
      ({!Service.Engine.row_cap}) and at most [limit]: ranked's k
      ({!Service.Engine.ranked_k}) or a compiled plan's [stop after].
      Interpreter trees concatenate in shard order, which is global
      document order.
    - [total] is [min limit (Σ shard totals)].
    - search, phrase and ranked check [max_results] once, against the
      merged [total]; a breach is the single node's [exhausted]
      error. Compiled and interpreted plans check it on their
      intermediate counts, on each shard. [max_steps] holds per
      shard, because steps are counted per process.
    - ranked scatters in waves of [window] shards, and the heap spans
      the waves: once it holds k rows, its cutoff is published as θ
      and relayed to the remaining shards ({!Core.Merge.Theta}'s
      monotone contract), so late shards prune documents that
      provably cannot enter the top-k. [window = 0] (the default)
      contacts every shard in one latency-optimal wave; smaller
      windows trade latency for pruned work. The other families run
      as one wave.

    Failures: each shard tries its replicas in rotation (the replica
    that answers stays active, so an outage is paid once, not per
    request). A query-level error from any shard is forwarded
    verbatim; shards whose every replica is unreachable, or whose
    answer does not decode, leave the response flagged
    [{"degraded":true,"shards_unavailable":[..]}] over the surviving
    shards' merged answer; if no shard answers the response is an
    [unavailable] error. *)

type t

val create :
  ?window:int -> ?client:Client.t -> ?source:string -> Shard_map.t -> t
(** [window] is the ranked fan-out wave size (0 = all shards at
    once); [client] defaults to {!Client.create}[ ()]; [source] names
    the manifest in health output. *)

val handle : t -> Service.Protocol.request -> Service.Json.t
(** The coordinator's dispatch — serve it with
    {!Service.Server.start_handler}. Mutation ops are refused with
    [read_only]; [prepare]/[execute] are coordinator-local (the
    statement text is re-scattered as a plain query). *)

val client : t -> Client.t
val shard_map : t -> Shard_map.t

val degraded_served : t -> int
(** Responses served with the degraded flag since startup. *)
