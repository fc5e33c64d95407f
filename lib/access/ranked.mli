(** Score-utilizing access methods (Sec. 5.3): thresholding composed
    directly with a score-emitting access method.

    The V-threshold is a score selection applied on the fly; the
    K-threshold uses a bounded {!Core.Top_k} accumulator, so neither
    materializes or sorts the full result. A score {!histogram}
    supports choosing thresholds from the score distribution instead
    of asking the user for an absolute value. *)

type emitter = emit:(Scored_node.t -> unit) -> unit -> int
(** The shape shared by TermJoin, Generalized Meet, PhraseFinder and
    the composites. *)

val top_k : int -> emitter -> Scored_node.t list
(** The K best-scored nodes, best first. *)

val top_k_docs :
  ?trace:Core.Trace.t ->
  ?use_skips:bool ->
  ?weights:float array ->
  ?doc_range:int * int ->
  ?shared_threshold:float Atomic.t ->
  Ctx.t ->
  terms:string list ->
  k:int ->
  (int * float) list
(** Document-at-a-time Top-K retrieval for a bag of terms, scoring
    [score(d) = sum_i weights.(i) * tf_i(d)] (weights default to 1).
    Returns at most [k] [(doc, score)] pairs, best score first, doc id
    breaking ties; at the K-th rank, ties keep the lowest doc ids.

    With [use_skips] (the default) this runs the max-score algorithm:
    low-ceiling terms become non-essential and are only probed by
    {!Ir.Postings.seek_doc} for candidates the remaining terms
    propose, and candidates whose per-block [block_max_tf] ceiling
    cannot beat the current K-th score are skipped without decoding
    their postings. [~use_skips:false] scores every document
    exhaustively; both paths return identical results.

    [doc_range] restricts scoring to documents in the half-open
    interval [(lo, hi)] — the per-partition entry point of the
    parallel executor. [shared_threshold] is a cross-partition score
    floor (initialised to [neg_infinity]): each partition publishes
    the monotone max of its k-th-best score into the atomic, and
    pruning additionally skips any document whose score ceiling is
    {e strictly} below it. Strictness matters: a score exactly equal
    to the final global cutoff can still win the doc-id tie-break, so
    only strictly-lower bounds are provably irrelevant to the merged
    top-k. The local result may then be missing documents below the
    shared floor, but the union over all partitions always contains
    the exact global top-k. *)

val above : float -> emitter -> Scored_node.t list
(** Nodes scoring strictly above the threshold, in document order. *)

val histogram : ?buckets:int -> emitter -> Store.Histogram.t
(** Score distribution of everything the method emits. *)

val top_fraction : q:float -> emitter -> Scored_node.t list
(** Run the method twice: once to build the histogram, once to keep
    nodes above the [q]-quantile score (e.g. [~q:0.9] keeps roughly
    the best decile). Document order. *)
