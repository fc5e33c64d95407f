(** Compilation of extended-XQuery queries onto the engine's access
    methods.

    The interpreter ({!Eval}) navigates retained in-memory trees; for
    the query shape of the paper's Queries 1 and 2 —

    {v
    for $x in document("D")//tag[p1/p2 = "lit"].../descendant-or-self::*
    score $x using ScoreFoo($x, {primary...}, {secondary...})
    pick $x using PickFoo(...)
    return ...
    sortby(score)
    threshold $x/@score > V stop after K
    v}

    — this module instead produces a physical plan over the store:
    the structural predicate runs as stack-based structural joins
    ({!Access.Pattern_exec}), scoring runs as a TermJoin, Pick runs
    as the streaming stack algorithm over the candidate forest, and
    the threshold as a scan filter plus bounded top-K. No document
    trees are materialized, so compiled queries also work on
    databases loaded without [keep_trees].

    Queries outside the recognized shape (multi-word phrases in
    ScoreFoo, joins, arbitrary [where] clauses …) are rejected with a
    reason, and the caller falls back to the interpreter. *)

type plan = {
  document : string;  (** glob over loaded document names *)
  structure : Core.Pattern.t;  (** structural anchor pattern, var 1 *)
  self_or_descendant : bool;
      (** the scored variable ranges over the anchor's subtree (the
          ad-or-self axis) rather than the anchor itself *)
  terms : string list;
  weights : float array;
  pick : (Functions.fctx -> Core.Op_pick.criterion) option;
      (** criterion factory, resolved against the database at
          execution time *)
  min_score : float option;  (** strict lower bound on scores *)
  limit : int option;
  access : Access.Pattern_exec.access;
      (** the score-generating access method; {!compile} fills it
          from a static rule, {!plan_with_stats} from the cost
          model *)
  estimate : Planner.decision option;
      (** present once {!plan_with_stats} has costed the plan *)
}

val compile : ?functions:Functions.t -> Ast.t -> (plan, string) result
(** [Error reason] when the query is outside the compilable shape.
    The access method follows the static rule: TermJoin for
    single-term scoring, the Comp1 composite pipeline for multi-term
    scoring — frequency-blind by construction; call
    {!plan_with_stats} to replace it with the costed choice. *)

val plan_with_stats :
  ?feedback:Ir.Stats.Feedback.t ->
  ?key:string ->
  ?parallelism:int ->
  Store.Db.t ->
  plan ->
  plan
(** Re-cost the plan against the database's collection statistics
    ({!Store.Db.collection_stats}) and exact per-term occurrence
    counts: the cheapest access method replaces the static choice and
    the full {!Planner.decision} (row estimate, degree, cost table)
    is recorded in [estimate]. [key]/[feedback] apply the learned
    cardinality correction; [parallelism] is the requested degree the
    planner may degrade. *)

val run :
  ?trace:Core.Trace.t ->
  governor:Core.Governor.t ->
  Store.Db.t ->
  plan ->
  emit:(Access.Scored_node.t -> unit) ->
  int
(** The plan up to its Threshold as a stream: every node that passes
    DocFilter, AnchorFilter, ScoreFilter, Pick and Threshold goes to
    [emit] in the access method's emission order, unranked and
    unlimited; returns how many did. The filters run fused into the
    access method's emit loop (only Pick materializes, per document)
    and record fused spans with their input and output cardinalities
    under the caller's open span. [governor] is charged the scored,
    filtered and thresholded counts, as a materializing pipeline
    would be at its boundaries; a breached budget raises
    {!Core.Governor.Resource_exhausted}. *)

val query_span :
  ?trace:Core.Trace.t ->
  governor:Core.Governor.t ->
  plan ->
  (unit -> int * 'a) ->
  'a
(** [query_span ~governor plan body] runs [body] — which streams one
    or more segments' {!run} output into the caller's own top-[limit]
    selection and returns [(n, v)], [n] being how many nodes reached
    the Rank stage — inside the ["CompiledQuery"] root span, records
    the fused Rank and Limit stages, and returns [v]. *)

val execute :
  ?limits:Core.Governor.limits ->
  ?trace:Core.Trace.t ->
  ?governor:Core.Governor.t ->
  Store.Db.t ->
  plan ->
  Access.Scored_node.t list
(** Evaluate the plan; results ranked best-first (ties in document
    order). {!run} feeds a bounded {!Core.Top_k} of the plan's
    [limit] (everything without one), so only the returned nodes are
    ever ranked. With [limits], cardinality is charged to a fresh
    governor as described for {!run}; [governor] supplies the
    governor instead ([limits] is then ignored), so the caller can
    read {!Core.Governor.steps} afterwards. With [trace], a
    ["CompiledQuery"] root span nests the access-method spans
    (PatternMatch, TermJoin, ...) and one span per stage (DocFilter,
    AnchorFilter, ScoreFilter, Pick, Threshold, Rank, Limit), each
    with its cardinalities; every stage but Pick is fused. *)

val run_string :
  ?functions:Functions.t ->
  ?limits:Core.Governor.limits ->
  ?trace:Core.Trace.t ->
  Store.Db.t ->
  string ->
  (Access.Scored_node.t list, string) result
(** Parse, compile and execute; governor breaches and storage faults
    come back as [Error] strings. *)

val explain : plan -> string
