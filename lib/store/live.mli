(** A live (updatable) store: immutable base + {!Wal} + {!Delta}.

    The store holds one committed {!Delta.t} value, which names its
    own base; every durable mutation commits a new value. Readers,
    checkpoints and validation all read such values, so each sees one
    consistent state.

    The handle owns a directory holding up to three files:

    - [wal.log] — the {!Wal}; every mutation is validated, appended
      and fsynced here {e before} its value is committed, so an
      acknowledged mutation survives a crash,
    - [wal.frozen.log] — present only while a checkpoint is in
      flight: the rotated log covering the frozen delta value, and
    - [checkpoint.tix] — the most recent checkpoint image; absent
      until the first {!checkpoint}.

    {!open_dir} recovers: it loads the newest base (the checkpoint
    image if present, else the caller-provided database, else an
    empty corpus), merges an interrupted checkpoint's rotated log
    back under the live one if a crash left both behind, replays the
    WAL's committed prefix into a fresh delta, and truncates any torn
    tail. The crash matrix is

    - crash before the WAL append commits → recovery truncates the
      torn frame; the store equals the pre-op state;
    - crash after the commit marker is durable → replay re-applies
      the record; the store equals the post-op state;
    - never anything in between.

    {b Group commit.} Concurrent mutations coalesce: a writer
    validates its record by applying it to the queue's tail value
    (the committed value plus every queued record) and enqueues it
    with the value that gives; the first to find no active batch
    leader commits the whole queue (up to [wal_batch] records) with
    one contiguous write and a single fsync, then commits the last
    record's value and wakes every waiter. Durability is unchanged —
    a mutation is acknowledged only after the fsync covering its
    frame returns — but N acknowledgements share one sync. A failed
    batch re-derives the queued values from the committed one. A
    single-threaded caller degenerates to batches of one,
    byte-identical to per-op commits.

    Mutations are serialized by an internal mutex; readers never take
    it — they query immutable snapshots published elsewhere (see
    [Service.Engine]). *)

type t

type error =
  | Wal_error of Wal.error
  | Mutation_error of Delta.mutation_error
  | Image_error of Db.error  (** loading or saving a checkpoint image *)
  | Checkpoint_in_progress
      (** {!checkpoint_begin} while another checkpoint is in flight *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type base_source =
  | From_checkpoint of string  (** [checkpoint.tix] found in the dir *)
  | Provided  (** the [?base] argument *)
  | Empty  (** neither: a fresh, empty corpus *)

type opened = {
  live : t;
  recovery : Wal.recovery;
  replay : Delta.replay_report;
  base_source : base_source;
}

val wal_path : dir:string -> string
val frozen_wal_path : dir:string -> string
val checkpoint_path : dir:string -> string

val open_dir :
  ?fault:Fault.t ->
  ?base:Db.t ->
  ?wal_batch:int ->
  dir:string ->
  unit ->
  (opened, error) result
(** Open (or create) the live store rooted at [dir]. A checkpoint
    image in the directory wins over [?base]: it already contains
    every mutation checkpointed so far, while [?base] is the original
    seed corpus. The WAL is then replayed on top of whichever base
    was chosen (a leftover [wal.frozen.log] is merged back first).
    [dir] must exist.

    [wal_batch] (default 64) caps how many queued records one group
    commit covers: the records that queue up while the previous batch
    syncs join the next one. *)

val insert : t -> name:string -> xml:string -> (unit, error) result
val delete : t -> name:string -> (unit, error) result
val update : t -> name:string -> xml:string -> (unit, error) result
(** Validate by applying, append to the WAL (fsync, possibly batched
    with concurrent mutations), then commit the new value. On [Ok] the
    mutation is durable. On [Error] nothing changed — invalid
    mutations are rejected before they reach the log, and an fsync
    failure fails every record the sync covered. May raise
    {!Fault.Write_crash} when an armed write fault fires (concurrent
    waiters in the same batch get a typed [Wal_error] instead). *)

(** {1 Checkpointing}

    [checkpoint_begin] keeps the committed value as the frozen one
    and rotates the WAL so mutations and reads continue immediately;
    [checkpoint_prepare] merges and saves the image off every lock;
    [checkpoint_install] atomically commits a value over the merged
    base, carrying the post-freeze suffix. {!checkpoint} composes the
    three synchronously. *)

type checkpoint_token

val checkpoint_begin : t -> (checkpoint_token, error) result
(** Keep the committed value as the frozen one and rotate [wal.log]
    to [wal.frozen.log] (a fresh live log picks up the suffix). Waits
    out any in-flight commit batch; mutations resume as soon as this
    returns. *)

val checkpoint_prepare :
  ?path:string -> t -> checkpoint_token -> (Db.t * string, error) result
(** Merge the frozen value's base, index and tombstones into a fresh
    immutable database ({!Db.compact}) and save it atomically to [path]
    (default [checkpoint.tix] in the store's directory). Takes no
    lock — mutations proceed concurrently. *)

val checkpoint_install : t -> Db.t -> string -> unit
(** Commit a value over the merged database, built by replaying the
    post-freeze suffix, re-derive the queued mutations from it, and
    delete the frozen log (the live [wal.log] already holds exactly
    the still-pending records). Waits out any in-flight commit batch;
    briefly takes the mutation mutex. *)

val checkpoint_abort : t -> (unit, error) result
(** Undo {!checkpoint_begin} after a failed prepare: atomically
    rebuild a single live log (frozen records + suffix) and drop the
    frozen value. No-op when no checkpoint is in flight. *)

val checkpoint_in_progress : t -> bool

val checkpoint : ?path:string -> t -> (string, error) result
(** [checkpoint_begin] + [checkpoint_prepare] + [checkpoint_install]
    run synchronously (aborting on a failed prepare). Returns the
    image path. *)

val delta : t -> Delta.t
(** The committed value: every acknowledged mutation applied. *)

val base : t -> Db.t
(** The committed value's base (changes only when a checkpoint
    installs). *)

val view : t -> Db.t * Delta.t
(** The committed value with its own base. *)

val dir : t -> string

type stats = {
  wal_records : int;  (** records in the live log (suffix only while
                          a checkpoint is in flight) *)
  wal_bytes : int;
  delta_documents : int;  (** all un-checkpointed delta documents *)
  tombstones : int;
  checkpoints : int;  (** checkpoints installed through this handle *)
  frozen_documents : int;  (** documents in the frozen value (0 when
                               no checkpoint is in flight) *)
  frozen_tombstones : int;
  checkpoint_in_progress : bool;
  gc_batches : int;  (** group-commit batches fsynced *)
  gc_records : int;  (** records committed through those batches *)
  gc_largest_batch : int;
}

val stats : t -> stats
val close : t -> unit
