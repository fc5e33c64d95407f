(** A page store with an LRU buffer pool.

    Pages model the disk-resident layout of the TIMBER-style database
    the paper runs inside: every record access goes through
    {!read_page}, misses pay a page transfer (a copy into a pool
    frame) and statistics expose how much of the database each access
    method touches.

    Every appended page is checksummed (CRC-32); the checksum is
    re-verified on every pool miss, so a damaged transfer — whether
    injected through {!set_fault} or caused by real bit rot in the
    stable storage — surfaces as a typed {!Read_error} instead of
    silently wrong records. Transient faults are retried up to the
    injector's budget before giving up. *)

type t

type stats = {
  page_count : int;
  reads : int;  (** logical page reads *)
  misses : int;  (** reads that were not served from the pool *)
  bytes_transferred : int;
  failures : int;
      (** reads that ended in an error: out-of-bounds page ids,
          exhausted transient retries and checksum mismatches *)
}

(** {1 Read faults} *)

type fault_kind =
  | Transient_exhausted  (** every retry of a transient fault failed *)
  | Checksum_mismatch  (** page bytes do not match their checksum *)

type read_error = {
  page : int;
  kind : fault_kind;
  attempts : int;  (** physical read attempts made *)
  detail : string;
}

exception Read_error of read_error

val pp_read_error : Format.formatter -> read_error -> unit

val default_page_size : int

val create : ?pool_pages:int -> page_size:int -> unit -> t
(** [pool_pages] is the buffer-pool capacity in frames
    (default 1024). *)

val of_mapped : page_size:int -> buf:Ir.Codec.buf -> (int * int) array -> t
(** [of_mapped ~page_size ~buf slices] is a read-only pager whose
    page [i] is the [(offset, length)] slice [slices.(i)] of [buf] —
    typically an mmap'd database image whose section checksum was
    already verified over the map. The pager is born pinned ({!pin}
    is O(1)), pages materialize into [Bytes.t] lazily on first read
    (published atomically, so the map is shared read-only across all
    domains), and {!append_page} raises [Invalid_argument].
    {!set_fault} injectors are never consulted: the map is the stable
    storage, and image integrity is the CRC's job. First-touch copies
    are counted as misses/bytes transferred in {!stats}; subsequent
    reads count as pinned reads. *)

val of_pages : page_size:int -> Bytes.t array -> t
(** A read-only pager over pages already in memory, born pinned like
    {!of_mapped}: {!pin} is O(1), reads never touch a pool or a fault
    injector, and no per-page checksum is computed — the pages come
    from another pager's stable storage ({!stable_page}) or were just
    encoded, and the section CRC of the image they are saved into
    covers them. {!append_page} raises [Invalid_argument]. *)

val page_size : t -> int
val append_page : t -> Bytes.t -> int
(** Add a page to stable storage (build time); returns its id.
    The page may be longer than [page_size] (oversized record). *)

val page_count : t -> int

val read_page : t -> int -> Bytes.t
(** Fetch a page through the buffer pool. The returned bytes must be
    treated as read-only. Raises [Invalid_argument] on an
    out-of-bounds page id (the message names the page id and the
    page count) and {!Read_error} when the physical read fails
    permanently. *)

val stable_page : t -> int -> Bytes.t
(** The stable bytes of a page, bypassing the pool, the fault injector
    and the statistics: an in-memory page is returned itself (pages
    never change once appended, so the result may be shared but not
    mutated), a mapped page is its materialized copy or a fresh copy
    of its slice. What a merge copies and what an image save
    writes. Raises [Invalid_argument] on an out-of-bounds id. *)

val read_page_result : t -> int -> (Bytes.t, read_error) result
(** Like {!read_page} but returns failed reads as values.
    Out-of-bounds ids still raise [Invalid_argument]: asking for a
    page that never existed is a caller bug, not a disk fault. *)

val set_fault : t -> Fault.t option -> unit
(** Attach (or clear) a fault injector; it is consulted on every
    subsequent pool miss. Frames already resident serve hits without
    touching the injector — call {!clear_pool} to force cold reads. *)

val fault : t -> Fault.t option

val stats : t -> stats
val reset_stats : t -> unit
val clear_pool : t -> unit
(** Drop every frame: makes the next reads cold, so experiments start
    from a known state. *)

(** {1 Concurrency}

    A pager may be read from several domains at once: pool state
    (frames, statistics) is mutex-protected. For a read-only snapshot
    the lock can be bypassed entirely with {!pin}. *)

val pin : t -> (unit, read_error) result
(** Does nothing on a pager that is already pinned. Otherwise verify
    every stable page's checksum once, then serve all
    subsequent reads lock-free straight from stable storage (no pool,
    no misses, no transfers — the image is memory-resident). The
    first damaged page is reported as [Error] and the pager stays
    unpinned. A pinned pager refuses further {!append_page}s
    ([Invalid_argument]), and the bytes {!read_page} returns are the
    stable pages themselves — the read-only contract is load-bearing. *)

val pinned : t -> bool
