(** Bounded top-K accumulation (the K-threshold of Sec. 5.3).

    A fixed-capacity min-heap keeps the K best-scoring items seen so
    far in O(log K) per insertion, so K-thresholding composes with
    any score-emitting access method without materializing or sorting
    the full result. *)

type 'a t

val create : ?tie:('a -> 'a -> int) -> int -> 'a t
(** [create k] raises [Invalid_argument] when [k <= 0]. Storage grows
    with the number of retained items, so [create max_int] is a
    valid "keep everything, rank at the end" accumulator.

    [tie] totally orders items of equal score ([tie a b < 0] means
    [a] ranks below [b] and is evicted first); without it (the
    default), which tied item survives at the K-th rank is whichever
    the heap happens to hold. A deterministic tie order is what lets
    independently built accumulators (e.g. one per parallel
    partition) merge into exactly the sequential result. *)

val add : 'a t -> score:float -> 'a -> unit
(** When the accumulator is full, [item] enters iff it ranks strictly
    above the current K-th entry under (score, [tie]). *)

val count : 'a t -> int

val cutoff : 'a t -> float option
(** The current K-th best score, once K items have been seen. *)

val would_enter : 'a t -> float -> bool
(** Whether an item with this score would be retained by {!add} —
    the pruning test of max-score early termination: a candidate
    whose score upper bound fails [would_enter] can be skipped
    without scoring it exactly. With a [tie] order this is exact only
    for candidates ranking below every present tied entry — which
    holds when items arrive in worst-first tie order, as in
    ascending-doc-id scoring. *)

val admits : 'a t -> float -> bool
(** Whether some item with this score could still enter under the tie
    order: [false] only when the accumulator is full and the score is
    strictly below the K-th best. Lets a caller skip building an item
    that {!add} would certainly reject. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Best first, [tie]-best first among equal scores; does not clear
    the accumulator. *)
