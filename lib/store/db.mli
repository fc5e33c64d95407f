(** The database facade: loads XML documents into the element store,
    the parent index and the inverted index in one pass. *)

type t

type error =
  | Not_a_database of { path : string }
      (** the file does not start with a TIX magic header *)
  | Unsupported_version of { path : string; found : string }
      (** a TIX image, but of a format this build cannot read *)
  | Truncated of { path : string; detail : string }
      (** the file ends before the data its header promises *)
  | Checksum_mismatch of {
      path : string;
      section : string;
      expected : int;
      actual : int;
    }  (** a section's payload does not match its stored CRC-32 *)
  | Corrupt of { path : string; detail : string }
      (** checksums pass but the image is structurally inconsistent *)
  | Io_error of { path : string; detail : string }

type load_options = {
  stem : bool;  (** Porter-stem indexed terms (default false) *)
  page_size : int;
  pool_pages : int;
  keep_trees : bool;
      (** retain parsed trees (and their numberings) so query results
          can be materialized as subtrees; turn off for large
          generated corpora (default true) *)
}

val default_options : load_options

type stats = {
  documents : int;
  elements : int;
  distinct_terms : int;
  occurrences : int;
  pages : int;
  index_bytes : int;
}

val load : ?options:load_options -> (string * Xmlkit.Tree.element) Seq.t -> t
(** [load docs] ingests the named documents in order; ids are
    assigned densely from 0. *)

val of_documents : ?options:load_options -> (string * Xmlkit.Tree.element) list -> t

type load_failure = { document : string; reason : string }

type load_report = { loaded : int; failed : load_failure list }
(** [failed] is in input order. *)

val load_isolated :
  ?options:load_options ->
  (string * (Xmlkit.Tree.element, string) result) Seq.t ->
  t * load_report
(** Skip-and-report bulk load: documents whose parse already failed
    ([Error reason]) and documents whose ingest raises are recorded
    in the report and skipped, instead of aborting the whole load.
    Each document is dry-run numbered before it touches any builder,
    so a failing document leaves no partial records behind. *)

val pp_load_report : Format.formatter -> load_report -> unit

val catalog : t -> Catalog.t
val elements : t -> Element_store.t
val parents : t -> Parent_index.t
val tags : t -> Tag_index.t
val index : t -> Ir.Inverted_index.t
val stats : t -> stats

val collection_stats : t -> Ir.Stats.t
(** Planner statistics (corpus aggregates, per-tag counts, path
    synopsis). Decoded from an opened image's [stats] section; for an
    in-memory build, computed by one element-store scan on first use
    and cached. Safe to call from any domain. *)

val document_id : t -> string -> int option

val subtree : t -> doc:int -> start:int -> Xmlkit.Tree.element option
(** Materialize the element with the given start key from the
    retained tree. [None] when the key is unknown or trees were not
    kept. *)

val numbering : t -> doc:int -> Xmlkit.Numbering.t option

val retains_trees : t -> bool
(** Whether any document kept its tree: an in-memory load with
    [keep_trees] keeps every document's, an opened image none, and a
    {!compact} each document's whose source kept it. *)

val tag_of : t -> doc:int -> start:int -> string option
(** Tag name of the element with the given start key, resolved
    through the parent index and the catalog (no data-page access). *)

val compact : base:t -> delta:t option -> tombstones:bool array -> t
(** Merge a delta segment into a fresh database: live base documents
    (those not marked in [tombstones]) keep their relative order and
    are renumbered densely from 0, delta documents follow in their
    own id order. Element records and posting occurrences are
    re-added under the new ids, so the result is equivalent to
    loading the surviving documents from scratch — this is the
    checkpoint's merge step. Each surviving document keeps its tree
    iff its source kept it, so a merge of an opened image and a delta
    keeps the delta documents' trees only. *)

(** {1 Persistence}

    A saved image is versioned and checksummed: a magic header
    ([TIXDB004]) followed by six framed sections (catalog, element
    pages, inverted index, parent index, tag index and planner
    statistics), each carrying its length and a CRC-32 of its
    payload. {!open_file} verifies
    every checksum before decoding a byte of a section, so any
    corruption of the image — a flipped bit, a torn write, a
    truncation — is reported as a typed {!error}, never as a crash
    or a silently wrong database.

    Images are opened {e zero-copy}: the file is mapped into memory
    and the checksum pass, the posting blocks and the element pages
    all read the map in place. Opening cost is dominated by the CRC
    scan, not by decoding, and resident memory is shared read-only
    across domains by the OS page cache. This six-section layout is
    the only one the reader accepts: any other magic is
    [Unsupported_version], any other section count is [Corrupt]. An
    image in an older layout is rebuilt from its XML. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val save : t -> string -> unit
(** [save db path] writes the [TIXDB004] database image — catalog,
    element pages, inverted index, parent index, tag index and
    planner statistics — to one file. The write is atomic: the image
    is assembled in a temporary file in the same directory and
    renamed over [path], so a crash mid-save never leaves a torn
    image behind. Retained trees are not persisted. *)

val open_file : ?verify:[ `Eager | `Lazy ] -> string -> (t, error) result
(** Load a database image, mapped zero-copy: element pages
    materialize lazily on first access, and the map itself is the
    buffer pool. Trees are not retained (queries must use the
    compiled engine path or reload the source documents).

    [verify] (default [`Eager]) controls the CRC pass: [`Eager]
    verifies every section checksum before returning; [`Lazy]
    performs only the O(1) structural framing, returns immediately,
    and runs the checksum scan on a background thread — poll
    {!verification} or block on {!await_verification} for the
    verdict. *)

val verification : t -> [ `Verified | `Pending | `Failed of error ]
(** Checksum status of the image behind this database. In-memory
    builds and eager opens are always [`Verified]; a lazy open is
    [`Pending] until its background scan lands. *)

val await_verification : t -> (unit, error) result
(** Block until a lazy open's background checksum scan completes and
    return its verdict; immediate on eager/in-memory databases. *)

val open_file_exn : ?verify:[ `Eager | `Lazy ] -> string -> t
(** Like {!open_file} but raises [Failure] with the printed error —
    the pre-typed-error behaviour, kept for callers that treat a bad
    image as fatal. *)

val pp_stats : Format.formatter -> stats -> unit
