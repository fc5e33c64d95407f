(** Deterministic, seedable fault injection for the storage layer.

    The injector simulates the disk failing underneath the buffer
    pool. The {!Pager} consults it on every physical page read (pool
    miss) and reacts to the decided outcome:

    - {e transient} faults model a read that fails once and succeeds
      on retry (a timeout, a recoverable bus error). The decision is
      keyed on [(seed, page, attempt)], so retrying the same read
      re-rolls and a bounded retry loop converges whenever the rate
      is below 1.
    - {e corruption} faults model a torn or bit-rotted page: the
      bytes handed back differ from what was written. The decision is
      keyed on [(seed, page)] only, so it is {e permanent} — the same
      page fails identically on every attempt, like a bad sector.

    Everything is a pure function of the seed: a failing run replays
    exactly.

    The injector also covers the {e write} path: {!arm_write_fault}
    schedules a torn write or a failed fsync for a specific upcoming
    {!Wal} append, so crash-point sweeps can place a process death at
    every byte of a log frame deterministically, and
    {!arm_image_fault} does the same for a checkpoint image save. *)

type t

val create :
  ?seed:int ->
  ?transient_rate:float ->
  ?corrupt_rate:float ->
  ?max_retries:int ->
  unit ->
  t
(** [transient_rate] and [corrupt_rate] are probabilities in
    [\[0, 1\]] (defaults 0); [max_retries] bounds the pager's retry
    loop for transient faults (default 3 retries after the first
    attempt). *)

type outcome =
  | Healthy
  | Transient  (** this attempt fails; a retry may succeed *)
  | Corrupt  (** the page is permanently damaged *)

val outcome : t -> page:int -> attempt:int -> outcome
(** Decide the fate of read [attempt] (0-based) of [page].
    Deterministic in [(seed, page, attempt)]. *)

val corrupt_in_place : t -> page:int -> Bytes.t -> unit
(** Damage the page image the way the decided corruption would:
    flips one deterministically chosen byte (no-op on empty pages).
    The pager's checksum verification is expected to catch this. *)

val max_retries : t -> int
val seed : t -> int

(** {1 Write-path faults}

    Unlike read faults (probabilistic, re-rolled per attempt), write
    faults are {e armed}: a test points one at the [op]-th upcoming
    append and the {!Wal} fires it exactly once. This is what a
    crash-point sweep needs — one precisely placed failure per run,
    not a rate. *)

type write_fault =
  | Torn_write of { at_byte : int }
      (** only the first [at_byte] bytes of the frame reach the file,
          then the process "dies" ({!Write_crash}); [at_byte] past the
          frame end degrades to a complete write that still crashes
          before the append returns — the
          crash-between-append-and-commit point *)
  | Fail_fsync
      (** the frame is written but the fsync reports failure; the
          append must report a typed error and leave the log in its
          pre-append state *)

exception Write_crash of { op : int; wrote : int }
(** Simulated process death mid-append: [wrote] bytes of append [op]'s
    frame reached stable storage before the crash. *)

val arm_write_fault : t -> op:int -> write_fault -> unit
(** Schedule [fault] for the [op]-th (0-based) subsequent append
    through the consumer that holds this injector. Re-arming the same
    [op] replaces the previous fault. *)

val take_write_fault : t -> op:int -> write_fault option
(** Consume the fault armed for append [op] (it fires at most once);
    consuming counts it in {!stats}. *)

val arm_image_fault : t -> save:int -> write_fault -> unit
(** Schedule [fault] for the [save]-th (0-based) subsequent image save
    ({!Db.save} [~fault]) through this injector: a {!Torn_write} lets
    the first [at_byte] bytes of the image reach its temporary file
    and raises {!Write_crash} with [op = save]; a {!Fail_fsync} makes
    the image's fsync fail, and the save raises before it renames
    anything. Either way the target image is untouched. *)

val take_image_fault : t -> (int * write_fault) option
(** Count one image save and consume the fault armed for it, returned
    with the save's index; consuming counts it in {!stats}. *)

type injection_stats = {
  transient : int;
  corrupt : int;
  torn_writes : int;
  failed_fsyncs : int;
}

val stats : t -> injection_stats
(** How many faults of each kind were actually injected. *)
