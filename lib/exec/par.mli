(** Intra-query parallel execution of the access methods.

    Each function partitions the doc-id space ({!Partition.plan}, or
    the caller's explicit [ranges]), fans the chunks out across up to
    [parallelism] domains ({!Pool}), runs a range-restricted instance
    of the corresponding sequential access method per chunk, and
    merges deterministically: results are identical — cardinality,
    order, scores, tie-breaks — to the sequential method's, for any
    [parallelism] and any covering disjoint ascending [ranges].

    [shared] threads one {!Core.Governor.shared} budget through every
    chunk: steps accumulate across domains and the first breach trips
    the whole query exactly once. [trace] records one ["Partition"]
    span subtree per chunk (in chunk order) under a single
    ["Parallel"] span, so EXPLAIN/ANALYZE shows the fan-out.

    [ranges] is for tests and tooling; production callers let the
    planner choose skip-block-aligned chunks. *)

val score :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  ?mode:Access.Counter_scoring.mode ->
  ?weights:float array ->
  parallelism:int ->
  Access.Pattern_exec.access ->
  Access.Ctx.t ->
  terms:string list ->
  Access.Scored_node.t list
(** Parallel {!Access.Pattern_exec.score} for TermJoin and GenMeet;
    document order. The composite baselines have no range-restricted
    form: a chunk raises [Invalid_argument] for them. *)

val term_join :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  ?variant:Access.Term_join.variant ->
  ?mode:Access.Counter_scoring.mode ->
  ?weights:float array ->
  parallelism:int ->
  Access.Ctx.t ->
  terms:string list ->
  Access.Scored_node.t list
(** Parallel {!Access.Term_join.to_list}; document order. *)

val gen_meet :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  ?mode:Access.Counter_scoring.mode ->
  ?weights:float array ->
  parallelism:int ->
  Access.Ctx.t ->
  terms:string list ->
  Access.Scored_node.t list
(** Parallel unscoped {!Access.Gen_meet.to_list}; document order. *)

val phrase :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  parallelism:int ->
  Access.Ctx.t ->
  phrase:string list ->
  Access.Scored_node.t list
(** Parallel {!Access.Phrase_finder.to_list}; document order. *)

val top_k_docs :
  ?trace:Core.Trace.t ->
  ?shared:Core.Governor.shared ->
  ?ranges:(int * int) list ->
  ?weights:float array ->
  ?theta:float ->
  parallelism:int ->
  Access.Ctx.t ->
  terms:string list ->
  k:int ->
  (int * float) list
(** Parallel {!Access.Ranked.top_k_docs} with cross-chunk shared
    max-score pruning; best score first, doc id breaking ties.
    [theta] seeds the shared threshold with a cutoff already proven by
    another backend (e.g. a remote shard's published k-th best); the
    result stays exact as long as the seed is a true monotone θ value
    (≤ the global cutoff). *)
