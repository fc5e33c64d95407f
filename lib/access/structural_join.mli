(** The stack-based structural (containment) join — the XML query
    processing primitive the TermJoin family generalizes
    (Al-Khalifa et al., ICDE 2001).

    Joins two document-ordered node lists on the ancestor-descendant
    (or parent-child) relationship in one merge pass. *)

type item = Store.Tag_index.item = {
  doc : int;
  start : int;
  end_ : int;
  level : int;
}
(** The tag index's own element type, so a tag-index array is a join
    input as is. *)

val join :
  ?trace:Core.Trace.t ->
  ?axis:[ `Ancestor_descendant | `Parent_child ] ->
  ancestors:item array ->
  descendants:item array ->
  emit:(item -> item -> unit) ->
  unit ->
  int
(** [join ~ancestors ~descendants ~emit] calls [emit a d] for every
    pair with [a] containing [d]; both inputs must be sorted by
    [(doc, start)]. Returns the number of emitted pairs. The
    ancestor list must be laminar (elements of one document nest or
    are disjoint), which holds for XML element sets. *)

val pairs :
  ?axis:[ `Ancestor_descendant | `Parent_child ] ->
  ancestors:item array ->
  descendants:item array ->
  unit ->
  (item * item) list

val outermost : item array -> item array
(** Drop every item nested inside an earlier item of the same
    document. Input must be sorted by [(doc, start)] and laminar;
    the result is sorted and pairwise disjoint, as
    {!occurrences_within} and {!inside} require. An input with no
    nested item is returned itself, not copied. *)

val inside : item array -> doc:int -> start:int -> bool
(** [inside within ~doc ~start]: the element starting at [start] in
    [doc] is one of [within] or lies inside one. [within] must be
    sorted by [(doc, start)] and pairwise disjoint (see
    {!outermost}); one binary search, no allocation. *)

val mem : item array -> doc:int -> start:int -> bool
(** Whether an item of the [(doc, start)]-sorted array starts at
    [start] in [doc]; one binary search. *)

val occurrences_within :
  ?trace:Core.Trace.t ->
  ?use_skips:bool ->
  Ir.Postings.cursor ->
  within:item array ->
  emit:(item -> Ir.Postings.occ -> unit) ->
  unit ->
  int
(** Structural semi-join of a posting cursor against a set of
    subtrees: calls [emit subtree occ] for every occurrence lying
    inside one of [within], which must be sorted by [(doc, start)]
    and pairwise disjoint (see {!outermost}). With [~use_skips:true]
    (default) the cursor seeks over the skip table from one subtree
    to the next, decoding none of the postings in the gaps; with
    [~use_skips:false] every posting is decoded. Returns the number
    of emitted occurrences. *)
