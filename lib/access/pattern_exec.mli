(** Store-level evaluation of (scored) pattern trees.

    "The core of XML query processing is generally believed to be the
    containment join" (Sec. 1): this module evaluates the structural
    and value part of a {!Core.Pattern.t} directly against the
    database using the tag index and stack-based structural joins —
    no in-memory trees — and is how a query plan pushes predicates
    like [article/author/sname = "Doe"] down into the engine.

    Candidate sets per pattern variable come from the tag index (tag
    predicates), from the inverted index plus a data-page
    verification (content predicates), or from the whole element list
    (unconstrained variables). Bottom-up semi-joins prune candidates
    whose pattern children cannot be satisfied; a top-down pass then
    restricts each variable to placements reachable from a satisfied
    root, matching the semantics of [Core.Matcher.matches_of_var]. *)

val candidates : Ctx.t -> Core.Pattern.pred -> Store.Tag_index.item list
(** Elements satisfying a local predicate, in document order, straight
    from the indexes (tag index / inverted index + verification).
    Raises [Invalid_argument] on non-index-evaluable predicates. *)

val matches : Ctx.t -> Core.Pattern.t -> var:int -> Store.Tag_index.item list
(** Elements the variable can bind to in some embedding, in document
    order. Supported predicates: [True], [Tag], [Content_eq]
    (against the element's direct text), [Content_has] (a phrase
    anywhere in the subtree) and conjunctions thereof; other
    predicate forms raise [Invalid_argument]. *)

type access =
  | Term_join of Term_join.variant
  | Gen_meet of { use_skips : bool }
      (** scoped to the outermost structural anchors; [use_skips]
          selects seeking vs full posting decode *)
  | Comp1
  | Comp2
      (** the interchangeable score-generating access methods of
          Sec. 6.1 — all produce the same scored-node sets *)

val access_operator : access -> string
(** The operator span name the method records (["TermJoin"],
    ["GenMeet"], ["Comp1"], ["Comp2"]) — what EXPLAIN matches
    planner estimates against. *)

val access_to_string : access -> string
(** Stable lower-case rendering for plan descriptions and logs. *)

val anchors : Ctx.t -> Core.Pattern.t -> var:int -> Store.Tag_index.item array
(** {!matches} as a document-ordered array. For a one-node [Tag]
    pattern whose root is [var] this is the tag index's own array,
    not a copy: it must not be mutated. *)

val score :
  ?trace:Core.Trace.t ->
  ?mode:Counter_scoring.mode ->
  ?weights:float array ->
  ?within:Structural_join.item array ->
  ?doc_range:int * int ->
  access ->
  Ctx.t ->
  terms:string list ->
  emit:(Scored_node.t -> unit) ->
  unit ->
  int
(** Run the access method over the whole collection: every scored
    element goes to [emit] in the method's emission order; returns
    how many did. This is the one place an {!access} value selects
    its algorithm. [within] (outermost anchor intervals,
    {!Structural_join.outermost}) scopes GenMeet's grouping and is
    ignored by the other methods, which score everything. [doc_range]
    restricts TermJoin and GenMeet to the half-open document interval
    [(lo, hi)]; the composite baselines have no range-restricted form
    and raise [Invalid_argument] when given one. *)

val run :
  ?trace:Core.Trace.t ->
  ?mode:Counter_scoring.mode ->
  ?weights:float array ->
  ?access:access ->
  Ctx.t ->
  Core.Pattern.t ->
  struct_var:int ->
  terms:string list ->
  emit:(Scored_node.t -> unit) ->
  unit ->
  int
(** The emit-style form of {!scored_matches}: calls [emit] for every
    scored element lying inside (or equal to) a match of
    [struct_var], in the access method's emission order, and returns
    how many it emitted. Each node is checked as the method emits it,
    with one binary search over the outermost anchor intervals
    ({!Structural_join.outermost}, {!Structural_join.inside}); nothing
    is materialized. *)

val scored_matches :
  ?trace:Core.Trace.t ->
  ?mode:Counter_scoring.mode ->
  ?weights:float array ->
  ?access:access ->
  Ctx.t ->
  Core.Pattern.t ->
  struct_var:int ->
  terms:string list ->
  Scored_node.t list
(** The access-method pipeline of the paper's Query 2: evaluate the
    structural pattern, score elements with the chosen [access]
    method (default plain TermJoin), and keep the scored elements
    lying inside (or equal to) a match of [struct_var] — the ad*
    relationship between the structural anchor and the scored
    component. Every [access] yields the identical result set;
    [Gen_meet] additionally scopes its grouping to the anchor
    subtrees, so its cost tracks the anchors' occupancy rather than
    the whole collection. Document order; {!run} collected and
    sorted. *)
