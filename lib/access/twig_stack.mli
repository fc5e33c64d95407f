(** The TwigStack holistic twig join (Bruno, Koudas & Srivastava,
    SIGMOD 2002 — reference [6] of the paper, "holistic twig joins:
    optimal XML pattern matching").

    The whole descendant-axis pattern — a chain or a branching
    {e twig} — is evaluated in one coordinated pass over the
    per-variable candidate streams.
    The [getNext] discipline only pushes elements that provably
    participate in a complete twig solution — for descendant-only
    twigs no intermediate result contains useless elements, which is
    the optimality result of that paper.

    Scope: patterns whose non-root edges are all the [Descendant]
    axis. Property-tested to agree exactly with
    {!Pattern_exec.matches}. *)

val supported : Core.Pattern.t -> bool

val matches : Ctx.t -> Core.Pattern.t -> var:int -> Store.Tag_index.item list
(** Elements the variable binds to in some twig embedding, in
    document order. Raises [Invalid_argument] when the pattern is
    not {!supported}. *)
