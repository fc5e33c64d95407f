(** Live-update coordinator: applies mutations to a {!Store.Live}
    store and republishes the scheduler's snapshot.

    Each successful mutation is WAL-durable before it is
    acknowledged (concurrent mutations share one group-commit fsync,
    see {!Store.Live}), and installs a fresh snapshot (same pinned
    base, new {!Engine.delta_view}, generation + 1) via
    {!Scheduler.reload} — reads stay lock-free and the
    generation-keyed caches invalidate exactly as on any other
    reload. {!checkpoint} merges the delta into a new immutable image
    and installs {e that} as the new base; the expensive merge runs
    off every lock (a background worker thread for async requests),
    so mutations and queries proceed while it is in flight.

    The coordinator also persists the snapshot's learned cardinality
    corrections ({!Ir.Stats.Feedback}) to [feedback.dat] in the
    store's directory on every installed checkpoint; {!load_feedback}
    restores them at boot so warmed corrections survive a restart. *)

type t

type error =
  | Store_error of Store.Live.error
  | Snapshot_error of string
      (** the mutation is durable but the new snapshot could not be
          built/installed — readers keep the previous generation *)

val error_code : error -> string
(** Protocol error code: [duplicate_document], [unknown_document],
    [parse_error], [sync_failed], [checkpoint_in_progress], [storage]
    or [bad_request]. *)

val error_message : error -> string

val create :
  ?every_docs:int ->
  live:Store.Live.t ->
  scheduler:Scheduler.t ->
  unit ->
  t
(** The scheduler's installed snapshot must wrap [live]'s base.
    Starts the background checkpoint worker thread; call {!shutdown}
    to join it.

    [every_docs] requests an automatic background checkpoint once the
    delta holds that many documents + tombstones. The trigger is
    checked after each acknowledged mutation and deduped while a
    checkpoint is pending or running. *)

val shutdown : t -> unit
(** Stop and join the background worker. An in-flight checkpoint
    completes first. Idempotent. *)

val live : t -> Store.Live.t

val insert : t -> name:string -> xml:string -> (int, error) result
val delete : t -> name:string -> (int, error) result
val update : t -> name:string -> xml:string -> (int, error) result
(** On [Ok g], the mutation is durable and generation [g] serves it. *)

type checkpoint_status =
  | Completed of string * int
      (** image path and the generation serving the merged base *)
  | Started  (** async request accepted (or coalesced into one
                 already pending) *)

val checkpoint : ?wait:bool -> t -> (checkpoint_status, error) result
(** Merge base + delta and install the image as the new base
    snapshot. With [wait] (the default) the call runs the checkpoint
    on the calling thread — after any in-flight background run drains
    — and returns [Completed]. With [~wait:false] it only requests a
    background checkpoint and returns [Started] immediately; requests
    are deduped while one is pending or running. *)

val checkpoint_in_progress : t -> bool
(** A checkpoint is pending or running (async request or sync call on
    another thread). *)

val load_feedback : dir:string -> Ir.Stats.Feedback.t option
(** Read the persisted correction table ([feedback.dat]) from a live
    store directory, if present and well-formed. Pass the result to
    {!Engine.of_db} at boot. *)
