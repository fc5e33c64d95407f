(** An immutable delta over an immutable base snapshot.

    The base {!Db} never changes after load; live updates accumulate
    here instead. A value holds

    - the {e delta documents}: inserted (or updated) documents kept in
      arrival order, indexed by their own in-memory {!Db} with the
      base's stemming configuration, and
    - the {e tombstones}: a set of base document ids marking documents
      that were deleted or superseded by an update.

    Readers therefore see [base ∪ delta − tombstones] without the
    immutable [.tix] read path changing at all. Document identity is
    by catalog name; a name is {e live} when it is a delta document or
    an untombstoned base document.

    A value never changes: every mutation returns a new one. So a
    published snapshot, a checkpoint's frozen state and a writer's
    validation each read one consistent state, and the value's own
    index ({!db}) is built once, on first use, and kept with it.

    Mutations come in two flavours. {!insert}/{!delete}/{!update} are
    strict: inserting a live name, or deleting/updating a dead one, is
    a typed error — this is what the service API exposes. {!replay} is
    lenient (insert of a live name degrades to update, update of a
    dead name to insert, delete of a dead name to a no-op) so that
    re-applying a WAL whose effects partially survived is idempotent. *)

type t

type mutation_error =
  | Duplicate_document of { name : string }
  | Unknown_document of { name : string }
  | Parse_failed of { name : string; reason : string }

val pp_mutation_error : Format.formatter -> mutation_error -> unit
val mutation_error_to_string : mutation_error -> string

val create : base:Db.t -> t
(** An empty delta over [base]: no delta documents, no tombstones. *)

val base : t -> Db.t

val insert : t -> name:string -> xml:string -> (t, mutation_error) result
val delete : t -> name:string -> (t, mutation_error) result
val update : t -> name:string -> xml:string -> (t, mutation_error) result

val apply : t -> Wal.record -> (t, mutation_error) result
(** Strict application of one WAL record — exactly
    {!insert}/{!delete}/{!update}. Applying a record is also how a
    record is validated before it is logged. *)

type replay_report = { applied : int; skipped : int }

val replay : t -> Wal.record list -> t * replay_report
(** Lenient, idempotent replay in order (see the module doc).
    [skipped] counts records that had no effect — deletes of dead
    names and records whose XML no longer parses. *)

val mem : t -> string -> bool
(** Is this name live (delta document, or untombstoned base doc)? *)

val tombstones : t -> bool array
(** A fresh bitmap over base document ids, [true] for a tombstone. *)

val tombstone_count : t -> int

val doc_count : t -> int
(** Number of delta documents. *)

val is_empty : t -> bool
(** No delta documents {e and} no tombstones. *)

val documents : t -> (string * string) list
(** The delta documents as [(name, xml)] in arrival order — delta
    document id [i] is the [i]-th entry. *)

val db : t -> Db.t option
(** An in-memory database over just the delta documents (dense ids in
    arrival order, stemming matching the base, trees retained), or
    [None] when there are no delta documents. Built on first use and
    kept in the value; safe to call from any domain. *)
