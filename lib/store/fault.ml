type write_fault = Torn_write of { at_byte : int } | Fail_fsync

exception Write_crash of { op : int; wrote : int }

type t = {
  seed : int;
  transient_rate : float;
  corrupt_rate : float;
  max_retries : int;
  mutable injected_transient : int;
  mutable injected_corrupt : int;
  write_faults : (int, write_fault) Hashtbl.t;
  image_faults : (int, write_fault) Hashtbl.t;
  mutable image_saves : int;
  mutable injected_torn : int;
  mutable injected_fsync : int;
}

type outcome = Healthy | Transient | Corrupt

type injection_stats = {
  transient : int;
  corrupt : int;
  torn_writes : int;
  failed_fsyncs : int;
}

let create ?(seed = 0) ?(transient_rate = 0.) ?(corrupt_rate = 0.)
    ?(max_retries = 3) () =
  if transient_rate < 0. || transient_rate > 1. then
    invalid_arg "Fault.create: transient_rate outside [0, 1]";
  if corrupt_rate < 0. || corrupt_rate > 1. then
    invalid_arg "Fault.create: corrupt_rate outside [0, 1]";
  if max_retries < 0 then invalid_arg "Fault.create: negative max_retries";
  {
    seed;
    transient_rate;
    corrupt_rate;
    max_retries;
    injected_transient = 0;
    injected_corrupt = 0;
    write_faults = Hashtbl.create 4;
    image_faults = Hashtbl.create 1;
    image_saves = 0;
    injected_torn = 0;
    injected_fsync = 0;
  }

let max_retries t = t.max_retries
let seed t = t.seed

let stats t =
  {
    transient = t.injected_transient;
    corrupt = t.injected_corrupt;
    torn_writes = t.injected_torn;
    failed_fsyncs = t.injected_fsync;
  }

let arm table ~what ~index fault =
  if index < 0 then invalid_arg ("Fault." ^ what ^ ": negative index");
  (match fault with
  | Torn_write { at_byte } when at_byte < 0 ->
    invalid_arg ("Fault." ^ what ^ ": negative torn-write offset")
  | Torn_write _ | Fail_fsync -> ());
  Hashtbl.replace table index fault

let take t table index =
  match Hashtbl.find_opt table index with
  | None -> None
  | Some f ->
    Hashtbl.remove table index;
    (match f with
    | Torn_write _ -> t.injected_torn <- t.injected_torn + 1
    | Fail_fsync -> t.injected_fsync <- t.injected_fsync + 1);
    Some f

let arm_write_fault t ~op fault =
  arm t.write_faults ~what:"arm_write_fault" ~index:op fault

let take_write_fault t ~op = take t t.write_faults op

let arm_image_fault t ~save fault =
  arm t.image_faults ~what:"arm_image_fault" ~index:save fault

let take_image_fault t =
  let save = t.image_saves in
  t.image_saves <- save + 1;
  Option.map (fun f -> (save, f)) (take t t.image_faults save)

(* splitmix64 finalizer: a few rounds of multiply-xorshift give a
   well-distributed 64-bit hash of the mixed-in key parts. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let hash t ~page ~attempt ~salt =
  let open Int64 in
  let h = mix64 (add (of_int t.seed) 0x9e3779b97f4a7c15L) in
  let h = mix64 (logxor h (of_int page)) in
  let h = mix64 (logxor h (of_int ((attempt lsl 8) lor salt))) in
  h

(* uniform float in [0, 1) from the top 53 bits *)
let unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) *. (1. /. 9007199254740992.)

let roll t ~page ~attempt ~salt rate =
  rate > 0. && unit_float (hash t ~page ~attempt ~salt) < rate

let outcome t ~page ~attempt =
  (* corruption is a property of the page, not of the attempt *)
  if roll t ~page ~attempt:0 ~salt:1 t.corrupt_rate then begin
    t.injected_corrupt <- t.injected_corrupt + 1;
    Corrupt
  end
  else if roll t ~page ~attempt ~salt:0 t.transient_rate then begin
    t.injected_transient <- t.injected_transient + 1;
    Transient
  end
  else Healthy

let corrupt_in_place t ~page bytes =
  let len = Bytes.length bytes in
  if len > 0 then begin
    let h = hash t ~page ~attempt:0 ~salt:2 in
    let pos = Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int len)) in
    (* xor with a nonzero mask so the byte always changes *)
    let mask = 1 + (Int64.to_int (Int64.logand h 0xffL) land 0xfe) in
    Bytes.set bytes pos
      (Char.chr (Char.code (Bytes.get bytes pos) lxor mask))
  end
