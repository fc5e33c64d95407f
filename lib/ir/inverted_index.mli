(** A positional inverted index over a collection of XML documents.

    The index maps a term to the ordered list of its occurrences
    (document, owning element, word position); an index look-up is
    the score-generating access of Sec. 5.1: it returns element
    identifiers plus auxiliary information (position, count) from
    which initial scores are produced. *)

type t

type stats = {
  distinct_terms : int;
  total_occurrences : int;
  documents : int;
  bytes : int;  (** compressed posting storage *)
}

(** {1 Building} *)

type builder

val builder : ?stem:bool -> unit -> builder
(** With [~stem:true] terms are Porter-stemmed before indexing. *)

val add_occurrence : builder -> doc:int -> node:int -> term:string -> pos:int -> unit
(** Record one term occurrence. Occurrences of one term must arrive
    in [(doc, pos)] order; the store's loader guarantees this by
    feeding documents in id order and tokens in document order. *)

val index_text : builder -> doc:int -> node:int -> start_pos:int -> string -> int
(** Tokenize a text fragment owned by element [node], indexing every
    token, and return the next free word position. *)

val freeze : builder -> t

val merge : base:t -> remap:int array -> delta:(t * int) option -> t
(** The index of the occurrences of base document [d] under id
    [remap.(d)] when that is [>= 0] (increasing over the kept
    documents), followed, for [delta = Some (d, offset)], by every
    occurrence of [d] under doc [offset + doc], [offset] above every
    kept id. Terms are taken verbatim (they were normalized at
    ingest) and one list is built per term from an allocation-free
    {!Postings.scan} of each source; a term left without occurrences
    is dropped. Equal to re-adding every surviving occurrence. *)

(** {1 Querying} *)

val lookup : t -> string -> Postings.t option
(** [lookup t term] applies the index's stemming configuration to
    [term] and returns its posting list. *)

val cursor : t -> string -> Postings.cursor option
val collection_freq : t -> string -> int
(** Total number of occurrences of [term]; 0 when absent. *)

val doc_freq : t -> string -> int
(** Number of distinct documents containing [term]; 0 when absent. *)

val document_count : t -> int
val stats : t -> stats
val dictionary : t -> Dictionary.t
val stemmed : t -> bool

(** {1 Serialization} *)

val save : t -> Buffer.t -> unit
(** Append the index's serialized form. *)

val load : Bytes.t -> int -> t * int
(** [load bytes off] is [(index, next_off)]; inverse of {!save}. *)

val load_buf : Codec.buf -> int -> t * int
(** Like {!load} over any {!Codec.buf}. Posting lists keep zero-copy
    views into the buffer — over an mmap'd image, block bytes decode
    in place and are never copied — and the dictionary is mapped
    lazily ({!Dictionary.of_mapped}): term strings and the probe
    table materialize on first lookup, so an open allocates nothing
    proportional to the term bytes. *)

val terms_by_freq : t -> (string * int) list
(** All terms with their collection frequencies, most frequent
    first. Used by the benchmark harness to select query terms by
    frequency, as the paper's experiments do. *)
