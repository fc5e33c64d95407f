let src = Logs.Src.create "tix.wal" ~doc:"TIX write-ahead log"

module Log = (val Logs.src_log src)

let magic = "TIXWAL01"
let magic_prefix = "TIXWAL"
let commit_byte = '\xC6'

type record =
  | Insert of { name : string; xml : string }
  | Delete of { name : string }
  | Update of { name : string; xml : string }

type error =
  | Not_a_wal of { path : string }
  | Unsupported_version of { path : string; found : string }
  | Io_error of { path : string; detail : string }
  | Sync_failed of { path : string; detail : string }

let pp_error ppf = function
  | Not_a_wal { path } -> Format.fprintf ppf "%s: not a TIX write-ahead log" path
  | Unsupported_version { path; found } ->
    Format.fprintf ppf "%s: unsupported WAL version %S (this build reads %S)"
      path found magic
  | Io_error { path; detail } -> Format.fprintf ppf "%s: %s" path detail
  | Sync_failed { path; detail } ->
    Format.fprintf ppf "%s: fsync failed, append rolled back: %s" path detail

let error_to_string e = Format.asprintf "%a" pp_error e

type t = {
  t_path : string;
  fd : Unix.file_descr;
  mutable length : int;  (* committed bytes, header included *)
  mutable records : int;  (* committed records *)
  mutable appends : int;  (* appends attempted through this handle *)
  fault : Fault.t option;
  mutable closed : bool;
}

type recovery = {
  records : record list;
  truncated_bytes : int;
  valid_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Frame codec *)

let op_insert = 1
let op_delete = 2
let op_update = 3

let add_string buf s =
  Ir.Codec.add_varint buf (String.length s);
  Buffer.add_string buf s

let read_string bytes off =
  let len, off = Ir.Codec.read_varint bytes off in
  if len < 0 || off + len > Bytes.length bytes then
    raise (Ir.Codec.Truncated "string runs past the payload");
  (Bytes.sub_string bytes off len, off + len)

let payload_of_record r =
  let buf = Buffer.create 256 in
  (match r with
  | Insert { name; xml } ->
    Ir.Codec.add_varint buf op_insert;
    add_string buf name;
    add_string buf xml
  | Delete { name } ->
    Ir.Codec.add_varint buf op_delete;
    add_string buf name
  | Update { name; xml } ->
    Ir.Codec.add_varint buf op_update;
    add_string buf name;
    add_string buf xml);
  Buffer.contents buf

(* [None] when the payload does not decode to exactly one record —
   recovery treats that the same as a CRC failure: a torn frame. *)
let record_of_payload bytes =
  match
    let op, off = Ir.Codec.read_varint bytes 0 in
    if op = op_insert then begin
      let name, off = read_string bytes off in
      let xml, off = read_string bytes off in
      if off <> Bytes.length bytes then None else Some (Insert { name; xml })
    end
    else if op = op_delete then begin
      let name, off = read_string bytes off in
      if off <> Bytes.length bytes then None else Some (Delete { name })
    end
    else if op = op_update then begin
      let name, off = read_string bytes off in
      let xml, off = read_string bytes off in
      if off <> Bytes.length bytes then None else Some (Update { name; xml })
    end
    else None
  with
  | v -> v
  | exception Ir.Codec.Truncated _ -> None
  | exception Invalid_argument _ -> None

let u32_to_bytes v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (v land 0xFF));
  b

let u32_of_bytes bytes off =
  let b i = Char.code (Bytes.get bytes (off + i)) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let frame_of_record r =
  let payload = payload_of_record r in
  let buf = Buffer.create (String.length payload + 9) in
  Buffer.add_bytes buf (u32_to_bytes (String.length payload));
  Buffer.add_bytes buf (u32_to_bytes (Crc32.string payload));
  Buffer.add_string buf payload;
  Buffer.add_char buf commit_byte;
  Buffer.to_bytes buf

(* ------------------------------------------------------------------ *)
(* Raw IO *)

let write_all fd bytes off len =
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd bytes (off + !written) (len - !written)
  done

let io_error path f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Io_error { path; detail = Printf.sprintf "%s: %s" fn (Unix.error_message e) })
  | exception Sys_error detail -> Error (Io_error { path; detail })

(* ------------------------------------------------------------------ *)
(* Recovery scan *)

(* Walk the frames of [bytes]; returns the committed records and the
   byte offset where the committed prefix ends. Every structural
   failure — not just a CRC mismatch — ends the prefix there: a torn
   append can damage any part of the frame. *)
let scan_frames bytes =
  let total = Bytes.length bytes in
  let rec go off acc =
    if off + 9 > total then (List.rev acc, off)
    else begin
      let len = u32_of_bytes bytes off in
      let crc = u32_of_bytes bytes (off + 4) in
      if len < 0 || off + 8 + len + 1 > total then (List.rev acc, off)
      else begin
        let payload = Bytes.sub bytes (off + 8) len in
        if Crc32.bytes ~off:(off + 8) ~len bytes <> crc then (List.rev acc, off)
        else if Bytes.get bytes (off + 8 + len) <> commit_byte then
          (List.rev acc, off)
        else begin
          match record_of_payload payload with
          | None -> (List.rev acc, off)
          | Some r -> go (off + 8 + len + 1) (r :: acc)
        end
      end
    end
  in
  go (String.length magic) []

let open_ ?fault path =
  match
    io_error path (fun () ->
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644)
  with
  | Error e -> Error e
  | Ok fd -> begin
    let fail e =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e
    in
    match
      io_error path (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          let bytes = Bytes.create size in
          ignore (Unix.lseek fd 0 Unix.SEEK_SET);
          let rec fill off =
            if off < size then begin
              match Unix.read fd bytes off (size - off) with
              | 0 -> raise (Sys_error "file shrank while reading")
              | n -> fill (off + n)
            end
          in
          fill 0;
          bytes)
    with
    | Error e -> fail e
    | Ok bytes ->
      let total = Bytes.length bytes in
      if total = 0 then begin
        (* a fresh log: write the header and commit it *)
        match
          io_error path (fun () ->
              write_all fd (Bytes.of_string magic) 0 (String.length magic);
              Unix.fsync fd)
        with
        | Error e -> fail e
        | Ok () ->
          Ok
            ( {
                t_path = path;
                fd;
                length = String.length magic;
                records = 0;
                appends = 0;
                fault;
                closed = false;
              },
              { records = []; truncated_bytes = 0; valid_bytes = String.length magic }
            )
      end
      else if
        total < String.length magic_prefix
        || Bytes.sub_string bytes 0 (String.length magic_prefix) <> magic_prefix
      then fail (Not_a_wal { path })
      else if
        total < String.length magic
        || Bytes.sub_string bytes 0 (String.length magic) <> magic
      then
        fail
          (Unsupported_version
             {
               path;
               found =
                 Bytes.sub_string bytes 0 (min total (String.length magic));
             })
      else begin
        let records, valid = scan_frames bytes in
        let truncated = total - valid in
        if truncated > 0 then
          Log.warn (fun m ->
              m "%s: discarding %d torn tail byte%s after %d committed record%s"
                path truncated
                (if truncated = 1 then "" else "s")
                (List.length records)
                (if List.length records = 1 then "" else "s"));
        match
          io_error path (fun () ->
              if truncated > 0 then begin
                Unix.ftruncate fd valid;
                Unix.fsync fd
              end)
        with
        | Error e -> fail e
        | Ok () ->
          Ok
            ( {
                t_path = path;
                fd;
                length = valid;
                records = List.length records;
                appends = 0;
                fault;
                closed = false;
              },
              { records; truncated_bytes = truncated; valid_bytes = valid } )
      end
  end

(* ------------------------------------------------------------------ *)
(* Appending *)

let rollback t =
  (* best effort: put the file back to the committed prefix so the
     next append does not build on a half-written frame *)
  try
    Unix.ftruncate t.fd t.length;
    Unix.fsync t.fd
  with Unix.Unix_error _ -> ()

(* One batch = one contiguous write + one fsync covering every frame.
   Fault semantics extend the per-op contract to batched commits: the
   earliest armed fault among the batch's op indices decides the
   outcome. A torn write at op [j] leaves frames before [j] fully in
   the file (they shared the dying write) plus a prefix of frame [j];
   an injected fsync failure fails the whole batch — the single sync
   covered every frame, so none of them is durable. *)
let append_many t records =
  match records with
  | [] -> Ok ()
  | _ ->
    if t.closed then
      Error (Io_error { path = t.t_path; detail = "log handle is closed" })
    else begin
      let frames = List.map frame_of_record records in
      let n = List.length frames in
      let op0 = t.appends in
      t.appends <- op0 + n;
      let fault =
        match t.fault with
        | None -> None
        | Some f ->
          let rec find i =
            if i >= n then None
            else begin
              match Fault.take_write_fault f ~op:(op0 + i) with
              | Some fl -> Some (i, fl)
              | None -> find (i + 1)
            end
          in
          find 0
      in
      match fault with
      | Some (j, Fault.Torn_write { at_byte }) ->
        (* the simulated process dies mid-batch: every frame before
           the faulted one was handed to the kernel in the same
           write, then a prefix of frame [j]; nothing was
           acknowledged, and only reopening the file tells how far
           the batch got *)
        let before = List.filteri (fun i _ -> i < j) frames in
        let frame_j = List.nth frames j in
        let wrote = min at_byte (Bytes.length frame_j) in
        (match
           io_error t.t_path (fun () ->
               ignore (Unix.lseek t.fd t.length Unix.SEEK_SET);
               List.iter (fun fr -> write_all t.fd fr 0 (Bytes.length fr)) before;
               if wrote > 0 then write_all t.fd frame_j 0 wrote;
               Unix.fsync t.fd)
         with
        | Ok () | Error _ -> ());
        raise (Fault.Write_crash { op = op0 + j; wrote })
      | Some (_, Fault.Fail_fsync) -> begin
        match
          io_error t.t_path (fun () ->
              ignore (Unix.lseek t.fd t.length Unix.SEEK_SET);
              List.iter (fun fr -> write_all t.fd fr 0 (Bytes.length fr)) frames)
        with
        | Error e ->
          rollback t;
          Error e
        | Ok () ->
          rollback t;
          Error
            (Sync_failed { path = t.t_path; detail = "injected fsync failure" })
      end
      | None -> begin
        let total = List.fold_left (fun a fr -> a + Bytes.length fr) 0 frames in
        match
          io_error t.t_path (fun () ->
              ignore (Unix.lseek t.fd t.length Unix.SEEK_SET);
              List.iter (fun fr -> write_all t.fd fr 0 (Bytes.length fr)) frames;
              Unix.fsync t.fd)
        with
        | Error e ->
          rollback t;
          (match e with
          | Io_error { detail; _ }
            when String.length detail >= 5 && String.sub detail 0 5 = "fsync" ->
            Error (Sync_failed { path = t.t_path; detail })
          | e -> Error e)
        | Ok () ->
          t.length <- t.length + total;
          t.records <- t.records + n;
          Ok ()
      end
    end

let append t record = append_many t [ record ]

(* Atomically replace [path] with a log holding exactly [records]:
   build the image beside it, fsync, then rename over the target.
   Used to merge a rotated checkpoint log back under the live one. *)
let save_records path records =
  let tmp = path ^ ".tmp" in
  match
    io_error tmp (fun () ->
        let fd =
          Unix.openfile tmp
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            write_all fd (Bytes.of_string magic) 0 (String.length magic);
            List.iter
              (fun r ->
                let fr = frame_of_record r in
                write_all fd fr 0 (Bytes.length fr))
              records;
            Unix.fsync fd))
  with
  | Error e -> Error e
  | Ok () -> io_error path (fun () -> Sys.rename tmp path)

let path t = t.t_path
let record_count (t : t) = t.records
let byte_size t = t.length
let append_index t = t.appends
let set_append_index t i = t.appends <- i
let fault t = t.fault

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
