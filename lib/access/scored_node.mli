(** Scored element identifiers: what score-generating access methods
    emit. *)

type t = {
  doc : int;
  start : int;
  end_ : int;
  level : int;
  tag : int;
  score : float;
}

val compare_pos : t -> t -> int
(** Document order: by [(doc, start)]. *)

val compare_score_desc : t -> t -> int
(** Best score first; ties in document order. *)

val rank_tie : t -> t -> int
(** The {!Core.Top_k} tie order that reproduces {!compare_score_desc}
    among equal scores: the node earlier in document order ranks
    higher ([rank_tie a b < 0] when [a] comes after [b]). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
