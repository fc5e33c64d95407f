(** Pipelined evaluator for the extended XQuery dialect.

    Evaluation streams binding tuples (environments) through the
    clause pipeline in the iterator style of a database engine; only
    the blocking operators — Pick (which needs the whole candidate
    set, Sec. 5.3), Sortby and rank thresholds — materialize.

    The database must have been loaded with [keep_trees] so result
    subtrees can be materialized. *)

type t

exception Error of string

val create :
  ?functions:Functions.t ->
  ?limits:Core.Governor.limits ->
  ?trace:Core.Trace.t ->
  Store.Db.t ->
  t
(** [functions] defaults to {!Functions.builtins}; [limits] (default
    {!Core.Governor.unlimited}) governs every subsequent {!run}: a
    fresh {!Core.Governor.t} is started per query, charging a step
    per evaluated expression / navigated node and gating intermediate
    binding cardinality. With [trace], each {!run} records an ["Eval"]
    root span with one child span per clause (For/Let/Where/Score/
    Pick) carrying the binding-stream cardinalities and governor
    steps. An evaluator reads exactly one database: to query base ∪
    delta, evaluate the merged database {!Store.Db.compact} builds. *)

val functions : t -> Functions.t

val run : ?governor:Core.Governor.t -> t -> Ast.t -> Xmlkit.Tree.element list
(** Evaluate a parsed query; results in ranked order when the query
    has a [Sortby]. [governor] governs the run in place of a fresh one
    started from the evaluator's limits: a caller whose request clock
    started earlier passes its own. Raises {!Error},
    {!Core.Governor.Resource_exhausted} when the limits are breached
    (the evaluator stays usable afterwards), or
    {!Store.Pager.Read_error} on a storage fault. *)

val run_string : t -> string -> (Xmlkit.Tree.element list, string) result
(** Parse and evaluate; governor breaches and storage faults come
    back as [Error] strings rather than exceptions. *)

val last_steps : t -> int
(** Governor steps consumed by the most recent {!run} (whether it
    finished or breached a limit); 0 before the first run. *)
