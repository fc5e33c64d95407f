exception Truncated of string

let truncated what = raise (Truncated what)

let add_varint buf v =
  assert (v >= 0);
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let add_zigzag buf v =
  let encoded = if v >= 0 then v lsl 1 else ((-v) lsl 1) - 1 in
  add_varint buf encoded

(* An OCaml int is 63 bits: ceil(63/7) = 9 continuation bytes is the
   longest well-formed encoding. Anything longer is corrupt data, not
   a big number. *)
let max_varint_bytes = 9

let read_varint b off =
  let len = Bytes.length b in
  let rec go off shift acc =
    if off >= len then truncated "varint runs past end of buffer"
    else if shift > 7 * max_varint_bytes then
      truncated "varint longer than 9 bytes"
    else begin
      let byte = Char.code (Bytes.get b off) in
      let acc = acc lor ((byte land 0x7F) lsl shift) in
      if byte land 0x80 <> 0 then go (off + 1) (shift + 7) acc
      else (acc, off + 1)
    end
  in
  go off 0 0

let read_zigzag b off =
  let encoded, next = read_varint b off in
  let v = if encoded land 1 = 0 then encoded lsr 1 else -((encoded + 1) lsr 1) in
  (v, next)

let varint_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

(* ------------------------------------------------------------------ *)
(* Read-only byte buffers: decoders below (postings, image sections)
   are written against [buf] so the same code reads from an in-memory
   [Bytes.t] and, zero-copy, from an mmap'd database image. *)

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type buf = B of Bytes.t | M of bigbytes

let buf_of_bytes b = B b
let buf_of_string s = B (Bytes.of_string s)

let buf_length = function
  | B b -> Bytes.length b
  | M m -> Bigarray.Array1.dim m

let buf_get buf i =
  match buf with
  | B b -> Char.code (Bytes.get b i)
  | M m -> Char.code (Bigarray.Array1.get m i)

let buf_sub_string buf off len =
  match buf with
  | B b -> Bytes.sub_string b off len
  | M m ->
    if off < 0 || len < 0 || off + len > Bigarray.Array1.dim m then
      invalid_arg "Codec.buf_sub_string";
    String.init len (fun i -> Bigarray.Array1.unsafe_get m (off + i))

external bigstring_get64u : bigbytes -> int -> int64 = "%caml_bigstring_get64u"
external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let buf_blit buf ~src_off dst ~dst_off ~len =
  match buf with
  | B b -> Bytes.blit b src_off dst dst_off len
  | M m ->
    if
      src_off < 0 || len < 0
      || src_off + len > Bigarray.Array1.dim m
      || dst_off < 0
      || dst_off + len > Bytes.length dst
    then invalid_arg "Codec.buf_blit";
    let i = ref 0 in
    while !i + 8 <= len do
      bytes_set64u dst (dst_off + !i) (bigstring_get64u m (src_off + !i));
      i := !i + 8
    done;
    for i = !i to len - 1 do
      Bytes.unsafe_set dst (dst_off + i)
        (Bigarray.Array1.unsafe_get m (src_off + i))
    done

let read_varint_buf buf off =
  let len = buf_length buf in
  let rec go off shift acc =
    if off >= len then truncated "varint runs past end of buffer"
    else if shift > 7 * max_varint_bytes then
      truncated "varint longer than 9 bytes"
    else begin
      let byte = buf_get buf off in
      let acc = acc lor ((byte land 0x7F) lsl shift) in
      if byte land 0x80 <> 0 then go (off + 1) (shift + 7) acc
      else (acc, off + 1)
    end
  in
  go off 0 0

(* ------------------------------------------------------------------ *)
(* Fixed-width bit packing (frame of reference). Values are laid out
   LSB-first in a continuous little-endian bit stream: value [k] of
   width [w] occupies bits [k*w .. k*w + w - 1]. A non-negative OCaml
   int needs at most 62 bits, so every representable value fits. *)

let max_bit_width = 62

let bits_needed v =
  assert (v >= 0);
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 v

let packed_bytes ~n ~width = ((n * width) + 7) / 8

(* Encode side (build/save time): byte-at-a-time accumulator, spilling
   each completed byte so no shift ever overflows 63-bit ints. *)
let pack_bits out vals n width =
  assert (width >= 0 && width <= max_bit_width);
  if width > 0 && width <= 55 then begin
    (* whole values into a rolling window: fewer than 8 bits stay
       pending, so the window holds at most [width + 7 <= 62] bits *)
    let mask = (1 lsl width) - 1 in
    let acc = ref 0 and bits = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc lor ((vals.(i) land mask) lsl !bits);
      bits := !bits + width;
      while !bits >= 8 do
        Buffer.add_char out (Char.unsafe_chr (!acc land 0xFF));
        acc := !acc lsr 8;
        bits := !bits - 8
      done
    done;
    if !bits > 0 then Buffer.add_char out (Char.unsafe_chr !acc)
  end
  else if width > 0 then begin
    let acc = ref 0 and bits = ref 0 in
    for i = 0 to n - 1 do
      let v = ref vals.(i) and remaining = ref width in
      while !remaining > 0 do
        let take = min !remaining (8 - !bits) in
        acc := !acc lor ((!v land ((1 lsl take) - 1)) lsl !bits);
        bits := !bits + take;
        v := !v lsr take;
        remaining := !remaining - take;
        if !bits = 8 then begin
          Buffer.add_char out (Char.unsafe_chr !acc);
          acc := 0;
          bits := 0
        end
      done
    done;
    if !bits > 0 then Buffer.add_char out (Char.unsafe_chr !acc)
  end

(* Decode side (cursor landings — the hot path). Widths up to 55 —
   in practice every real block — stream through a rolling
   accumulator: each byte is read exactly once, shifted into a bit
   window, and values peel off the bottom with one mask + one shift.
   The window never holds more than [width - 1 + 8 <= 62] live bits,
   so nothing overflows a 63-bit int. The caller bounds-checks
   [off .. off + packed_bytes ~n ~width) before calling. *)
let unpack_bits_stream buf ~off ~width ~n out =
  let mask = (1 lsl width) - 1 in
  match buf with
  | B b ->
    let acc = ref 0 and bits = ref 0 and p = ref off in
    for k = 0 to n - 1 do
      while !bits < width do
        acc := !acc lor (Char.code (Bytes.unsafe_get b !p) lsl !bits);
        incr p;
        bits := !bits + 8
      done;
      Array.unsafe_set out k (!acc land mask);
      acc := !acc lsr width;
      bits := !bits - width
    done
  | M m ->
    let acc = ref 0 and bits = ref 0 and p = ref off in
    for k = 0 to n - 1 do
      while !bits < width do
        acc := !acc lor (Char.code (Bigarray.Array1.unsafe_get m !p) lsl !bits);
        incr p;
        bits := !bits + 8
      done;
      Array.unsafe_set out k (!acc land mask);
      acc := !acc lsr width;
      bits := !bits - width
    done

(* Wider values (56..62 bits) can't keep a byte-granular window inside
   an int, so they gather per value instead: the value is assembled
   from the bytes covering its bit range; bits above [width - 1] are
   cleared by the final mask and bits shifted past position 62 are
   dropped by [lsl] semantics — both are exactly the unwanted bits. *)
let unpack_bits buf ~off ~width ~n out =
  assert (width >= 0 && width <= max_bit_width);
  if width = 0 then Array.fill out 0 n 0
  else if width <= 55 then unpack_bits_stream buf ~off ~width ~n out
  else begin
    let mask = (1 lsl width) - 1 in
    match buf with
    | B b ->
      for k = 0 to n - 1 do
        let bitpos = k * width in
        let byte = off + (bitpos lsr 3) in
        let shift = bitpos land 7 in
        let acc = ref (Char.code (Bytes.unsafe_get b byte) lsr shift) in
        let got = ref (8 - shift) in
        let j = ref (byte + 1) in
        while !got < width do
          acc := !acc lor (Char.code (Bytes.unsafe_get b !j) lsl !got);
          got := !got + 8;
          incr j
        done;
        Array.unsafe_set out k (!acc land mask)
      done
    | M m ->
      for k = 0 to n - 1 do
        let bitpos = k * width in
        let byte = off + (bitpos lsr 3) in
        let shift = bitpos land 7 in
        let acc =
          ref (Char.code (Bigarray.Array1.unsafe_get m byte) lsr shift)
        in
        let got = ref (8 - shift) in
        let j = ref (byte + 1) in
        while !got < width do
          acc :=
            !acc lor (Char.code (Bigarray.Array1.unsafe_get m !j) lsl !got);
          got := !got + 8;
          incr j
        done;
        Array.unsafe_set out k (!acc land mask)
      done
  end
