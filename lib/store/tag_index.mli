(** Tag index: for each element tag, the document-ordered list of
    elements carrying it.

    This is the element-stream input of the structural join family
    (Zhang et al., Al-Khalifa et al.): evaluating a path step like
    [//article] or [//author] starts from this index instead of a
    full table scan. *)

type item = { doc : int; start : int; end_ : int; level : int }

type t

type builder

val builder : unit -> builder

val add : builder -> tag:int -> item -> unit
(** Items must arrive in (doc, start) order across all calls (the
    loader's document order guarantees this). *)

val freeze : builder -> t

val merge :
  base:t -> remap:int array -> delta:(t * int * (int -> int)) option -> t
(** Base elements of document [d] under id [remap.(d)] when that is
    [>= 0] (increasing over the kept documents), then — for
    [delta = Some (d, offset, tag_of)] — every element of [d] under
    doc [offset + doc] and tag [tag_of tag], [offset] above every
    kept id. Built from the flat arrays by one counting pass. *)

val iter : t -> (tag:int -> item -> unit) -> unit
(** Every element with its tag, in document order (the element
    store's scan order). *)

val nodes : t -> tag:int -> item array
(** All elements with the tag, in document order; [||] for unknown
    tags. The returned array must not be mutated. *)

val all : t -> item array
(** Every element, in document order. *)

val count : t -> tag:int -> int
(** Number of elements with the tag (a catalog cardinality, useful
    for join ordering). *)

val tag_count : t -> int

(** {1 Serialization}

    A TIXDB004 image stores this index as its own section, so an
    open decodes it directly instead of rebuilding it by scanning
    every element page. *)

val save : t -> Buffer.t -> unit

val load : Ir.Codec.buf -> int -> t * int
(** [(index, next_off)]; inverse of {!save}. Raises
    [Ir.Codec.Truncated] on a short buffer. *)
