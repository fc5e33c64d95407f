(** The element table: every element record of every document,
    serialized into pages in [(doc, start)] order.

    Point look-ups descend a page directory (binary search) and then
    decode records within the page; sequential scans decode page
    after page. Both go through the {!Pager}'s buffer pool, so the
    relative costs of the access methods in Sec. 6 — posting-list
    merges versus full-table structural joins versus per-node random
    look-ups — are reproduced by construction. *)

type t

(** {1 Building} *)

type builder

val builder : ?page_size:int -> ?pool_pages:int -> unit -> builder

val add : builder -> Element_rec.t -> unit
(** Records must be appended in [(doc, start)] order. *)

val freeze : builder -> t

val merge :
  base:t -> remap:int array -> delta:(t * int * (int -> int)) option -> t
(** [merge ~base ~remap ~delta] is the store holding [base]'s
    documents [d] with [remap.(d) >= 0] under id [remap.(d)] (the
    remap must be increasing over them), then — for
    [delta = Some (d, offset, tag_of)] — every record of [d] under doc
    [offset + doc] and tag [tag_of tag], with [offset] above every
    remapped id. Base pages are copied as they are (a page holds one
    document's records and no doc id), so the merged catalog must give
    the base's tags their base ids; [tag_of] maps the delta's tag ids
    into it, and only delta records are re-encoded, into pages of the
    base's page size. The result's pager is born pinned
    ({!Pager.of_pages}). *)

(** {1 Access} *)

val element_count : t -> int
val document_count : t -> int
val pager : t -> Pager.t

val get : t -> doc:int -> start:int -> Element_rec.t option
(** Point look-up by primary key: page-directory descent plus in-page
    scan. This is the "data access plus navigation" the plain
    TermJoin pays to learn a popped node's child count (Sec. 6.1). *)

val get_text : t -> doc:int -> start:int -> string option
(** Like {!get} but returns the record's direct text; the data-page
    access performed by the Comp3 verification filter. *)

val scan : t -> ?with_text:bool -> (Element_rec.t -> unit) -> unit
(** Full sequential scan in [(doc, start)] order; decodes every
    record (skipping text payloads unless [with_text]). *)

val scan_doc : t -> doc:int -> ?with_text:bool -> (Element_rec.t -> unit) -> unit
(** Scan one document's records in start order. *)

(** {1 Serialization} *)

val save : t -> (string -> unit) -> unit
(** Emit the page image (page directory and raw pages), in order, as
    pieces whose concatenation is the section: each stable page is
    emitted as it is, without a copy. *)

val load_mapped : Ir.Codec.buf -> int -> t * int
(** [load_mapped buf off] is [(store, next_off)]; inverse of {!save}.
    Zero-copy: pages stay as slices of [buf] (an mmap'd image section
    whose CRC has been verified) behind a born-pinned
    {!Pager.of_mapped} pager that materializes each page lazily on
    first read. Raises [Ir.Codec.Truncated] if the page table runs
    past the buffer. *)

val subtree_texts : t -> doc:int -> start:int -> end_:int -> string list
(** Direct texts of every element whose interval lies within
    [[start, end_]], in document order: reconstructs [alltext()] from
    stored pages. *)
