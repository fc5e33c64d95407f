(** A shared read-only snapshot of one database, and uniform
    execution of service requests against it.

    A {!snapshot} pins the store's pager ({!Store.Pager.pin}), after
    which the whole read path — element pages, parent/tag indexes,
    frozen postings — is immutable shared state that any number of
    domains may evaluate queries against concurrently. Every worker
    of {!Scheduler} executes through {!exec}, and so do [tixdb query],
    [search] and [phrase] in every output format ([--explain] alone
    goes through {!explain}): one request has one execution path and
    one semantics everywhere. *)

type delta_view = {
  delta_db : (Store.Db.t * Access.Ctx.t) option;
      (** index over the delta documents; [None] when the delta holds
          only tombstones *)
  tombstones : bool array;  (** over base document ids *)
  dense : int array;
      (** base doc → its id in the merged (rebuild-equivalent) dense
          id space; [-1] for tombstoned docs *)
  n_live : int;  (** live base documents; delta doc [d] ↦ [n_live + d] *)
  n_tomb : int;
  delta_docs : int;
  rebuild : Mutex.t * Store.Db.t option Atomic.t;
      (** base ∪ delta − tombstones as one database
          ({!Store.Db.compact}), which interpreted queries read, and the
          lock its one build holds. Empty until the first interpreted
          query of the snapshot builds it; never built for a
          tombstone-only delta over a base that retains no trees
          ({!Store.Db.retains_trees}), since it would retain none *)
}
(** How a snapshot sees a pending {!Store.Delta}, read in two ways.
    Access methods and compiled plans run over the base and the delta
    separately and stream into one selection in the dense id space;
    the interpreter reads [rebuild]. Either way results — ids,
    scores, order — equal a from-scratch rebuild of base ∪ delta −
    tombstones. *)

type snapshot = {
  db : Store.Db.t;
  ctx : Access.Ctx.t;
  generation : int;
      (** bumped on reload; caches key on it so a stale entry can
          never serve a new snapshot *)
  source : string;  (** image path, or ["<memory>"] *)
  delta : delta_view option;
      (** pending live updates layered over [db]; [None] for a purely
          immutable snapshot *)
  feedback : Ir.Stats.Feedback.t;
      (** per-snapshot cardinality corrections learned from executed
          queries; its generation is folded into plan-cache keys so a
          material correction change re-costs cached plans *)
}

val of_db :
  ?generation:int ->
  ?source:string ->
  ?feedback:Ir.Stats.Feedback.t ->
  Store.Db.t ->
  (snapshot, string) result
(** Pin the database's pager and wrap it (no delta). [Error] when a
    page fails its pin-time checksum verification. [feedback] carries
    an existing correction table into the new snapshot — a checkpoint
    republish keeps its warmed corrections, and a restart can restore
    a persisted table ({!Ir.Stats.Feedback.of_string}). *)

val load :
  ?verify:[ `Eager | `Lazy ] ->
  ?generation:int ->
  string ->
  (snapshot, string) result
(** [Store.Db.open_file] + {!of_db}. [`Lazy] defers the image's CRC
    pass to a background thread ({!Store.Db.open_file}) so a shard
    process reaches serving state in O(1). *)

val with_delta : snapshot -> Store.Delta.t -> snapshot
(** Attach a delta value (documents, tombstones) to the snapshot. The
    value must overlay the snapshot's own [db]; a later mutation is a
    new value and needs a new snapshot. An empty delta yields
    [delta = None]. *)

val fault_stats : snapshot -> Store.Fault.injection_stats option
(** Injection counts of the fault injector attached to the base
    store's pager, if any — surfaced through the service [stats]
    response so fault-injected runs are observable over the wire. *)

(** {1 Requests} *)

type search_method = Termjoin | Enhanced | Genmeet | Comp1 | Comp2 | Auto

val search_method_of_string : string -> search_method option
val search_method_to_string : search_method -> string
(** [Auto] ("auto") resolves at execution time through
    {!Query.Planner.choose}: the cheapest method by estimated cost,
    with the requested parallelism degraded when the estimated
    per-partition occupancy is too low. The resolved method is
    recorded in the result's [plan] field and the [op.*] counters. *)

type request =
  | Query of { q : string; mode : [ `Auto | `Engine | `Interp ] }
      (** extended XQuery; [`Auto] compiles onto the access methods
          and falls back to the interpreter when the shape is outside
          the compilable fragment (and trees were retained) *)
  | Search of {
      terms : string list;
      method_ : search_method;
      complex : bool;
      anchor : string option;
          (** restrict scored nodes to elements lying inside (or
              being) an element with this tag. [Auto] prices the
              anchor-scoped GenMeet candidate; execution semi-joins
              the chosen method's output against the anchors and runs
              sequentially. An unknown tag yields no rows. *)
    }
  | Phrase of { phrase : string; comp3 : bool }
  | Ranked of { terms : string list }
      (** document-at-a-time max-score top-k over the given bag;
          routed through {!Query.Planner.choose} for the parallelism
          degree and the learned cardinality correction *)

type row = { tag : string; doc : int; start : int; score : float }
(** One scored element; for {!Ranked} rows, [start = -1] and [tag] is
    the document name. *)

val compare_row : row -> row -> int
(** Score descending, ties in [(doc, start)] order — the order every
    result family emits. Exposed so the cross-shard gather reproduces
    single-run output exactly. *)

val row_cap : int option -> int
(** A request's [k] as a cap on the rows (or trees) it returns:
    [max_int], every row, for [None] or a negative [k]. *)

val ranked_k : int option -> int
(** How many documents {!Ranked} ranks: [k] when positive, else 10.
    It bounds a ranked result's [total] as a compiled plan's [limit]
    bounds a query's. *)

type result = {
  rows : row list;
  trees : string list;
      (** rendered XML results of the interpreter path (rows empty) *)
  total : int;  (** result count before [k]-truncation *)
  limit : int option;
      (** the compiled plan's [stop after] row limit; [None] for every
          other request. Travels on the wire as ["limit"], so a
          distributed coordinator bounds its merged rows and [total]
          by it *)
  cached : bool;
  plan : string option;  (** explain output of the compiled plan *)
  timings : (string * float) list;  (** stage -> seconds, in order *)
  steps_used : int;
      (** governor steps the execution consumed (0 for cache hits);
          for a parallel request, the shared budget's total across
          every domain *)
  trace : Core.Trace.span option;
      (** the annotated operator span tree (EXPLAIN ANALYZE), present
          iff the request was executed with [~trace:true] *)
}

type error =
  | Parse_error of string
  | Unsupported of string
      (** outside the compilable fragment with no retained trees to
          fall back to *)
  | Exhausted of Core.Governor.violation
  | Storage of string
  | Bad_request of string

val error_code : error -> string
val error_message : error -> string

val canonical_key : request -> string
(** Deterministic cache key: query text is whitespace-normalized
    outside string literals, term lists joined verbatim. Does not
    include the snapshot generation, [k], [theta] or the step and
    result caps — the result cache's key adds those. *)

type caches = {
  plans : (Query.Compile.plan, string) Stdlib.result Lru.t;
      (** keyed by {!plan_cache_key}; [Error reason] caches the
          negative compile so the fallback decision is also cached.
          Cached plans are costed ({!Query.Compile.plan_with_stats}) *)
  results : result Lru.t;
      (** finished results, keyed by the generation, [k], [theta],
          the step and result caps and the {!canonical_key}; a hit is
          served with [cached = true], no timings, no steps and no
          trace *)
}

val plan_cache_key : snapshot -> string -> string
(** Prefix a {!canonical_key} with the snapshot's feedback
    generation ([sg<N>|…]): when an observed cardinality moves a
    correction materially, the generation bump invalidates every
    cached plan, forcing a re-cost on next use. *)

val exec :
  ?caches:caches ->
  ?limits:Core.Governor.limits ->
  ?k:int ->
  ?theta:float ->
  ?trace:bool ->
  ?parallelism:int ->
  snapshot ->
  request ->
  (result, error) Stdlib.result
(** Evaluate one request under one fresh budget of [limits]. Over a
    pending delta the budget covers both segments: search, phrase and
    ranked draw every segment's steps from one
    {!Core.Governor.shared} budget and check the result cap once,
    against [total]; a compiled plan runs every segment under one
    governor; an interpreted query runs once, on the snapshot's
    [rebuild], under a deadline that also covers building it (the
    build itself is charged no steps). A breach is
    {!error.Exhausted} and a storage fault
    {!error.Storage}, whichever family raised it. [k] truncates the
    ranked row list (default: keep everything). Stage latencies are
    recorded in {!Metrics} histograms ([stage.*]) and the executed
    operator in [op.*] counters.

    [theta] seeds {!Ranked} evaluation's shared max-score threshold
    with a cutoff already proven elsewhere — a distributed
    coordinator relaying other shards' published k-th-best scores
    ({!Core.Merge.Theta}). Documents whose score ceiling is strictly
    below the seed are pruned, so a hinted answer is a correct
    {e partial} answer from the coordinator's point of view: anything
    it omits provably cannot appear in the merged global top-k.
    Hinted results are cached under a θ-qualified key, never shared
    with unhinted runs. Other request shapes ignore the option.

    [parallelism] > 1 runs eligible requests — unanchored {!Search}
    with the termjoin/enhanced/genmeet methods, non-comp3 {!Phrase}, and
    {!Ranked} — through the intra-query parallel executor
    ({!Exec.Par}): the posting lists are partitioned into
    skip-block-aligned document ranges fanned out across up to that
    many domains, under one shared governor budget ([limits] bounds
    the whole query, and a breach reports exactly one
    {!error.Exhausted}). Results are identical to sequential
    execution, so parallel and sequential runs share cache entries;
    other request shapes (compiled/interpreted queries, composite
    baselines) ignore the option and run sequentially.

    With [~trace:true] the request runs with a live {!Core.Trace}
    tracer threaded through the operator pipeline: the result carries
    the span tree, each span's latency is folded into a [span.<op>]
    histogram, and the result cache is bypassed in both directions (a
    trace must measure a real execution, and an artificially slow
    traced run must not be served to untraced clients... nor the
    reverse). *)

val explain :
  ?caches:caches -> ?snapshot:snapshot -> string -> (string, error) Stdlib.result
(** EXPLAIN without executing: parse and compile the query, returning
    the engine plan's pretty-printed form. [Error Unsupported] when
    the query falls outside the compilable fragment (it would run on
    the interpreter). With [snapshot], the plan is costed against the
    collection statistics and the printout includes the chosen access
    method, its row estimate and the alternative cost table; the plan
    cache (when given) is keyed as {!exec} keys a [`Engine]-mode
    {!Query}, so an explained plan is the plan that execution runs. *)

val set_slow_query_threshold : float option -> unit
(** Requests slower than this many seconds are counted
    ([queries.slow]) and logged at warning level — with their span
    tree when tracing was on. [None] (the default) disables slow-query
    logging. *)
