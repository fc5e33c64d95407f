(** Crash-safe write-ahead log for live corpus updates.

    The log is an append-only file of insert/delete/update records.
    Every record is framed as

    {v
      length   u32 big-endian        payload byte count
      crc32    u32 big-endian        CRC-32 of the payload
      payload  length bytes          varint op, name, optional XML
      commit   1 byte (0xC6)         the frame's commit marker
    v}

    behind an 8-byte magic header ([TIXWAL01]). A record is
    {e committed} exactly when its whole frame — commit marker
    included — is on stable storage; {!append} fsyncs before
    returning.

    Recovery ({!open_}) replays committed records in order and
    truncates the file at the first torn frame: a short length/CRC
    header, a payload shorter than its length promises, a CRC
    mismatch, a missing or wrong commit marker, or an undecodable
    payload all mark the end of the committed prefix. Replay is
    idempotent — reopening an already-recovered log yields the same
    records and truncates nothing.

    Write faults from an attached {!Fault} injector are honoured:
    a {!Fault.Torn_write} stops the frame after N bytes and raises
    {!Fault.Write_crash} (the simulated process death a crash-point
    sweep catches); {!Fault.Fail_fsync} reports a typed
    [Sync_failed] and rolls the file back to its pre-append length. *)

type t

type record =
  | Insert of { name : string; xml : string }
  | Delete of { name : string }
  | Update of { name : string; xml : string }

type error =
  | Not_a_wal of { path : string }
      (** the file does not start with a TIXWAL magic header *)
  | Unsupported_version of { path : string; found : string }
  | Io_error of { path : string; detail : string }
  | Sync_failed of { path : string; detail : string }
      (** an fsync failed (or was injected to fail): the append is
          not durable and was rolled back *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type recovery = {
  records : record list;  (** the committed prefix, in append order *)
  truncated_bytes : int;
      (** torn/corrupt tail bytes discarded by recovery (0 on a clean
          log) *)
  valid_bytes : int;  (** file length after recovery, header included *)
}

val open_ : ?fault:Fault.t -> string -> (t * recovery, error) result
(** Open (creating an empty log if the file is absent), replay the
    committed prefix and truncate any torn tail. The returned handle
    appends after the recovered prefix. *)

val append : t -> record -> (unit, error) result
(** Frame, write and fsync one record. On [Ok] the record is
    committed; on [Error] the log file is back at its pre-append
    length and the in-memory state is unchanged. May raise
    {!Fault.Write_crash} when an armed torn-write fault fires — the
    "process" died mid-append and only reopening the file
    ({!open_}) tells how far the frame got. Equivalent to
    [append_many t [record]]. *)

val append_many : t -> record list -> (unit, error) result
(** Group commit: frame every record, hand them to the kernel in one
    contiguous write and fsync {e once} — on [Ok] all records are
    committed behind a single sync. Each record still consumes one
    op index for fault injection, and the earliest armed fault in
    the batch decides the outcome: a {!Fault.Torn_write} at op [j]
    leaves the frames before [j] fully in the file (they shared the
    dying write) plus [at_byte] bytes of frame [j], then raises
    {!Fault.Write_crash}; a {!Fault.Fail_fsync} fails the {e whole}
    batch with [Sync_failed] and rolls the file back — the single
    sync covered every frame, so none of them is durable.
    [append_many t []] is a no-op. *)

val save_records : string -> record list -> (unit, error) result
(** Atomically replace [path] with a freshly built log holding
    exactly [records]: the image is written and fsynced beside the
    target, then renamed over it. Used to merge a rotated checkpoint
    log back under the live one during recovery or abort. *)

val path : t -> string
val record_count : t -> int
(** Committed records currently in the log (replayed + appended). *)

val byte_size : t -> int
(** Committed log length in bytes, header included. *)

val append_index : t -> int
(** 0-based index of the {e next} append through this handle — the
    op index {!Fault.arm_write_fault} keys on. *)

val set_append_index : t -> int -> unit
(** Carry the op-fault indexing across a log rotation: a fresh
    handle opened mid-stream inherits the old handle's counter so
    armed fault op indices stay unambiguous. *)

val fault : t -> Fault.t option

val close : t -> unit
(** Release the file descriptor. Idempotent; the handle must not be
    used afterwards. *)
