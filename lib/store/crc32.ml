(* Reflected CRC-32 with the IEEE polynomial 0xEDB88320, slicing by
   eight: table [k] advances the CRC of a byte followed by [k] zero
   bytes, so one step folds eight input bytes with eight independent
   look-ups. Row [k] of the flat table holds entries
   [k * 256 .. k * 256 + 255]; row 0 is the classic byte table. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) lsl 8) lor n) in
      t.((k lsl 8) lor n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

external string_get32u : string -> int -> int32 = "%caml_string_get32u"

external bigstring_get32u : Ir.Codec.bigbytes -> int -> int32
  = "%caml_bigstring_get32u"

let[@inline] tbl i = Array.unsafe_get table i
let[@inline] byte crc b = tbl ((crc lxor b) land 0xFF) lxor (crc lsr 8)

(* Fold the little-endian words [lo] (bytes 0-3) and [hi] (bytes 4-7)
   of one eight-byte step into [crc]. *)
let[@inline] step8 crc lo hi =
  let x = crc lxor lo in
  tbl ((7 lsl 8) lor (x land 0xFF))
  lxor tbl ((6 lsl 8) lor ((x lsr 8) land 0xFF))
  lxor tbl ((5 lsl 8) lor ((x lsr 16) land 0xFF))
  lxor tbl ((4 lsl 8) lor (x lsr 24))
  lxor tbl ((3 lsl 8) lor (hi land 0xFF))
  lxor tbl ((2 lsl 8) lor ((hi lsr 8) land 0xFF))
  lxor tbl ((1 lsl 8) lor ((hi lsr 16) land 0xFF))
  lxor tbl (hi lsr 24)

(* The word loads read native byte order and [step8] expects
   little-endian words, so a big-endian host takes the byte loop. *)
let word_loads = not Sys.big_endian

let[@inline] u32 v = Int32.to_int v land 0xFFFFFFFF

(* The register is kept inverted, as the algorithm defines it; a
   finished CRC is the register inverted back, so [extend] re-inverts
   it and carries on. *)
let string_range init s off len =
  let crc = ref (init lxor 0xFFFFFFFF) and i = ref off in
  let stop = off + len in
  if word_loads then
    while !i + 8 <= stop do
      crc :=
        step8 !crc (u32 (string_get32u s !i)) (u32 (string_get32u s (!i + 4)));
      i := !i + 8
    done;
  while !i < stop do
    crc := byte !crc (Char.code (String.unsafe_get s !i));
    incr i
  done;
  !crc lxor 0xFFFFFFFF

let bigstring_range m off len =
  let crc = ref 0xFFFFFFFF and i = ref off in
  let stop = off + len in
  if word_loads then
    while !i + 8 <= stop do
      crc :=
        step8 !crc
          (u32 (bigstring_get32u m !i))
          (u32 (bigstring_get32u m (!i + 4)));
      i := !i + 8
    done;
  while !i < stop do
    crc := byte !crc (Char.code (Bigarray.Array1.unsafe_get m !i));
    incr i
  done;
  !crc lxor 0xFFFFFFFF

let check_range ~what ~dim off len =
  if off < 0 || len < 0 || off + len > dim then invalid_arg what

let string ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  check_range ~what:"Crc32.string" ~dim:(String.length s) off len;
  string_range 0 s off len

let extend crc s = string_range crc s 0 (String.length s)

let bytes ?off ?len b = string ?off ?len (Bytes.unsafe_to_string b)

let buf ?(off = 0) ?len (b : Ir.Codec.buf) =
  match b with
  | Ir.Codec.B by -> bytes ~off ?len by
  | Ir.Codec.M m ->
    let dim = Bigarray.Array1.dim m in
    let len = match len with Some l -> l | None -> dim - off in
    check_range ~what:"Crc32.buf" ~dim off len;
    bigstring_range m off len
