(** Positional posting lists.

    An occurrence records where a term appears: in which document, in
    which element ([node] is the start key of the element that
    directly owns the text), and at which word position. Occurrences
    are kept sorted by [(doc, pos)], which is document order, and are
    stored delta-compressed with frame-of-reference bit packing:
    each block of {!block_size} occurrences carries one fixed bit
    width per field (doc-delta, node-delta, pos-delta) and the three
    packed field streams, decoded a whole block at a time with
    straight-line shift/mask ops — no per-occurrence varint loop.

    Each block has one skip entry (decoder snapshot, first sort key,
    max owning-element key, max per-document frequency), so a cursor
    can {!seek_doc}/{!seek_pos} forward by binary-searching the skip
    table and decoding only the landing block, and score-utilizing
    consumers can prune blocks whose {!block_max_tf} bound cannot
    beat a Top-K cutoff.

    A list decodes out of any {!Codec.buf} — {!deserialize_buf} keeps
    a zero-copy view, so postings read straight out of an mmap'd
    TIXDB004 image. *)

type occ = { doc : int; node : int; pos : int }

val compare_occ : occ -> occ -> int
(** Order by [(doc, pos)]. *)

val block_size : int
(** Occurrences per skip block (128). *)

type builder

val builder : unit -> builder

val add : builder -> occ -> unit
(** Occurrences must be appended in [(doc, pos)] order; out-of-order
    appends raise [Invalid_argument]. *)

val push : builder -> doc:int -> node:int -> pos:int -> unit
(** {!add} of unboxed fields: with {!scan}, a list is re-encoded
    without allocating per occurrence. *)

type t
(** A frozen, compressed posting list. *)

val freeze : builder -> t
(** The list appended so far; the builder is left empty and may build
    another. *)

val length : t -> int
(** Number of occurrences (the term's collection frequency). *)

val byte_size : t -> int
val blocks : t -> int
(** Number of skip blocks. *)

val max_tf : t -> int
(** Largest number of occurrences of the term in any one document —
    the term-level score bound of max-score pruning. 0 when empty. *)

val block_first_doc : t -> int -> int
(** [block_first_doc t i] is the document id of block [i]'s first
    occurrence ([0 <= i < blocks t]) — the natural cut points for
    document-range partitioning: splitting at these boundaries lets a
    chunk's cursor land on a block start without decoding its
    predecessor. *)

type cursor

val cursor : t -> cursor

val next : cursor -> occ option
(** Decode and return the next occurrence, or [None] at the end. *)

val reset : cursor -> unit

(** {1 Seeking}

    Both seeks are forward-only: they consume (skipping whole blocks
    where the skip table allows) every occurrence strictly before the
    target, then decode and return the first occurrence at or after
    it — exactly the occurrence a loop of [next] calls discarding
    smaller entries would return. A target at or before the cursor's
    position degrades to [next]. *)

val seek_doc : cursor -> int -> occ option
(** [seek_doc c d] is the first remaining occurrence with
    [occ.doc >= d]. *)

val seek_pos : cursor -> doc:int -> pos:int -> occ option
(** [seek_pos c ~doc ~pos] is the first remaining occurrence with
    [(occ.doc, occ.pos) >= (doc, pos)] lexicographically. Element
    start/end keys share the position key space, so seeking to an
    element's end key skips every occurrence inside its subtree. *)

val block_max_tf : cursor -> int
(** Upper bound on the whole-document frequency of any document
    intersecting the block of the last returned occurrence. Valid
    immediately after [next]/[seek_*] returned [Some _]. *)

val block_max_node : cursor -> int
(** Largest owning-element key in the current block. *)

val iter : (occ -> unit) -> t -> unit

val scan : t -> (int -> int -> int -> unit) -> unit
(** [scan t f] calls [f doc node pos] for every occurrence in order,
    decoding block-at-a-time with no per-occurrence allocation — the
    fast path for scan-bound consumers and the decode benchmarks. *)

val to_list : t -> occ list
val of_list : occ list -> t
(** Builds from a list that must already be sorted by [(doc, pos)]. *)

(** {1 Serialization} *)

val serialize : t -> string
(** Skip table followed by the packed block region (count is carried
    separately). *)

val deserialize : count:int -> string -> t
(** Raises [Codec.Truncated] when the payload is shorter than its
    own framing claims. *)

val deserialize_buf : count:int -> Codec.buf -> int -> t * int
(** [deserialize_buf ~count buf off] parses the {!serialize} framing
    at [off] and returns the list plus the offset one past its packed
    region. The list keeps a zero-copy view into [buf] — for an
    mmap'd image the block bytes are decoded in place, never copied.
    Raises [Codec.Truncated] like {!deserialize}. *)
