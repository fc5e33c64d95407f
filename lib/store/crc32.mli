(** CRC-32 (IEEE 802.3 polynomial, reflected), computed by slicing
    by eight: eight table look-ups fold eight input bytes per step,
    about five times the byte-at-a-time rate, with the same values.

    Used for the page-level checksums the {!Pager} verifies on every
    buffer-pool miss and the per-section checksums of saved database
    images. Values fit in 32 bits and are returned as non-negative
    OCaml ints. *)

val bytes : ?off:int -> ?len:int -> Bytes.t -> int
(** Checksum of a byte range (the whole buffer by default). *)

val string : ?off:int -> ?len:int -> string -> int

val extend : int -> string -> int
(** [extend crc s] is the checksum of the bytes [crc] was computed
    over followed by [s]: a payload written in pieces is checksummed
    piece by piece. [string s = extend 0 s]. *)

val buf : ?off:int -> ?len:int -> Ir.Codec.buf -> int
(** Checksum over a {!Ir.Codec.buf} range — for an mmap'd image this
    reads the mapped pages directly, without copying them. *)
