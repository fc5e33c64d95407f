(** Reference (oracle) implementations, used by the test suite to
    validate every optimized access method on randomly generated
    corpora. They favour obviousness over speed. *)

open Access

val term_counts :
  Ctx.t -> terms:string list -> ((int * int) * int array) list
(** For every element containing at least one occurrence of any of
    the terms in its subtree: [((doc, start), counts per term)],
    computed by brute-force interval containment over fully decoded
    posting lists. Sorted by [(doc, start)]. *)

val scored :
  ?mode:Counter_scoring.mode ->
  ?weights:float array ->
  Ctx.t ->
  terms:string list ->
  Scored_node.t list
(** Brute-force equivalent of TermJoin: every ancestor element of any
    occurrence, scored with the same simple or complex function.
    Sorted in document order. *)

val phrase_counts : Ctx.t -> phrase:string list -> ((int * int) * int) list
(** For every text-owning element: the number of phrase occurrences
    in it, computed by decoding postings and checking position
    adjacency directly. Only non-zero entries, sorted. *)
