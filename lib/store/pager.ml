type stats = {
  page_count : int;
  reads : int;
  misses : int;
  bytes_transferred : int;
  failures : int;
}

type fault_kind = Transient_exhausted | Checksum_mismatch

type read_error = {
  page : int;
  kind : fault_kind;
  attempts : int;
  detail : string;
}

exception Read_error of read_error

let pp_read_error ppf e =
  Format.fprintf ppf "page %d: %s (%d attempt%s): %s" e.page
    (match e.kind with
    | Transient_exhausted -> "transient read fault persisted"
    | Checksum_mismatch -> "checksum mismatch")
    e.attempts
    (if e.attempts = 1 then "" else "s")
    e.detail

type frame = { page_id : int; data : Bytes.t; mutable tick : int }

(* A pager over an mmap'd image: pages live as (offset, length)
   slices of the map and are materialized (copied into Bytes) lazily,
   on first read, because the record decoders work on Bytes. The
   materialized page is published with [Atomic.set] so the write is
   safely visible to every other domain reading through the same
   pinned snapshot; a racing first read simply copies the same
   immutable slice twice. [Bytes.empty] doubles as the "not yet
   materialized" sentinel — a real page is never empty. *)
type mapped = {
  m_buf : Ir.Codec.buf;
  m_slices : (int * int) array;  (* (offset, length) per page *)
  m_pages : Bytes.t Atomic.t array;
}

type t = {
  size : int;
  pool_pages : int;
  mutable stable : Bytes.t array;  (* the simulated disk *)
  mutable checksums : int array;  (* CRC-32 of each stable page *)
  mutable stable_count : int;
  frames : (int, frame) Hashtbl.t;
  mutable clock : int;
  mutable reads : int;
  mutable misses : int;
  mutable bytes_transferred : int;
  mutable failures : int;
  mutable fault : Fault.t option;
  lock : Mutex.t;
      (* serializes pool (frames/stats) mutation so concurrent domains
         can read through one pager; the pinned fast path below never
         takes it *)
  mutable pinned : bool;
  pinned_reads : int Atomic.t;  (* reads served by the pinned path *)
  mapped : mapped option;  (* Some = zero-copy image-backed pager *)
}

let default_page_size = 8192

let create ?(pool_pages = 1024) ~page_size () =
  {
    size = page_size;
    pool_pages;
    stable = Array.make 64 Bytes.empty;
    checksums = Array.make 64 0;
    stable_count = 0;
    frames = Hashtbl.create 256;
    clock = 0;
    reads = 0;
    misses = 0;
    bytes_transferred = 0;
    failures = 0;
    fault = None;
    lock = Mutex.create ();
    pinned = false;
    pinned_reads = Atomic.make 0;
    mapped = None;
  }

(* Image-backed pagers are born pinned: the image's section CRC was
   verified over the map before construction, so pinning — and
   therefore snapshot publication — is O(1) regardless of index
   size. There is no pool and no fault injection on this path; the
   map is the stable storage. *)
let of_mapped ~page_size ~buf slices =
  let n = Array.length slices in
  {
    size = page_size;
    pool_pages = 0;
    stable = [||];
    checksums = [||];
    stable_count = n;
    frames = Hashtbl.create 1;
    clock = 0;
    reads = 0;
    misses = 0;
    bytes_transferred = 0;
    failures = 0;
    fault = None;
    lock = Mutex.create ();
    pinned = true;
    pinned_reads = Atomic.make 0;
    mapped = Some { m_buf = buf; m_slices = slices; m_pages = Array.init n (fun _ -> Atomic.make Bytes.empty) };
  }

(* Born pinned over pages already in memory — a merge that copies or
   shares another pager's stable pages ({!stable_page}). The pages
   carry no per-page checksums: a pinned pager never transfers, and
   the image's section CRC covers the bytes once they are saved. *)
let of_pages ~page_size pages =
  let n = Array.length pages in
  {
    (create ~pool_pages:0 ~page_size ()) with
    stable = pages;
    checksums = [||];
    stable_count = n;
    frames = Hashtbl.create 1;
    pinned = true;
  }

let page_size t = t.size

let append_page t page =
  if t.mapped <> None then
    invalid_arg "Pager.append_page: image-backed pager is immutable";
  if t.pinned then invalid_arg "Pager.append_page: pinned pager is immutable";
  let capacity = Array.length t.stable in
  if t.stable_count >= capacity then begin
    let fresh = Array.make (capacity * 2) Bytes.empty in
    Array.blit t.stable 0 fresh 0 capacity;
    t.stable <- fresh;
    let fresh_sums = Array.make (capacity * 2) 0 in
    Array.blit t.checksums 0 fresh_sums 0 capacity;
    t.checksums <- fresh_sums
  end;
  let id = t.stable_count in
  t.stable.(id) <- page;
  t.checksums.(id) <- Crc32.bytes page;
  t.stable_count <- id + 1;
  id

let page_count t = t.stable_count

let set_fault t fault = Mutex.protect t.lock (fun () -> t.fault <- fault)
let fault t = t.fault

let evict_lru t =
  (* Linear scan over the pool; the pool is small and eviction is on
     the miss path, which already pays a page transfer. *)
  let victim = ref None in
  Hashtbl.iter
    (fun _ frame ->
      match !victim with
      | Some best when best.tick <= frame.tick -> ()
      | Some _ | None -> victim := Some frame)
    t.frames;
  match !victim with
  | Some frame -> Hashtbl.remove t.frames frame.page_id
  | None -> ()

(* One physical read: copy the stable page, let the injector damage
   it, then verify the checksum. Retries re-roll transient faults;
   corruption is permanent, so a checksum mismatch ends the loop
   immediately. *)
let transfer t id =
  let verify ~attempts data =
    let actual = Crc32.bytes data in
    if actual = t.checksums.(id) then Ok data
    else
      Error
        {
          page = id;
          kind = Checksum_mismatch;
          attempts;
          detail =
            Printf.sprintf "stored crc32 %08x, computed %08x" t.checksums.(id)
              actual;
        }
  in
  let rec attempt k =
    match t.fault with
    | None -> verify ~attempts:(k + 1) (Bytes.copy t.stable.(id))
    | Some f -> begin
      match Fault.outcome f ~page:id ~attempt:k with
      | Fault.Healthy -> verify ~attempts:(k + 1) (Bytes.copy t.stable.(id))
      | Fault.Corrupt ->
        let data = Bytes.copy t.stable.(id) in
        Fault.corrupt_in_place f ~page:id data;
        verify ~attempts:(k + 1) data
      | Fault.Transient ->
        if k < Fault.max_retries f then attempt (k + 1)
        else
          Error
            {
              page = id;
              kind = Transient_exhausted;
              attempts = k + 1;
              detail =
                Printf.sprintf "injected transient fault on every attempt \
                                (retry budget %d)"
                  (Fault.max_retries f);
            }
    end
  in
  attempt 0

(* Verify every stable page once, then serve reads straight from the
   stable array without touching the pool or its lock: the stable
   array and checksums are never mutated after the last append, so a
   pinned pager is safe to read from any number of domains
   concurrently. Pinned reads model a fully memory-resident image —
   they count as reads but never as misses or transfers. *)
let pin t =
  (* a pinned pager was verified when it pinned, or was born pinned
     over a CRC-verified map or pages whose image CRC covers them *)
  if t.pinned then Ok ()
  else
  let rec verify id =
    if id >= t.stable_count then Ok ()
    else begin
      let actual = Crc32.bytes t.stable.(id) in
      if actual = t.checksums.(id) then verify (id + 1)
      else
        Error
          {
            page = id;
            kind = Checksum_mismatch;
            attempts = 1;
            detail =
              Printf.sprintf "stored crc32 %08x, computed %08x at pin time"
                t.checksums.(id) actual;
          }
    end
  in
  match verify 0 with
  | Ok () ->
    Mutex.protect t.lock (fun () -> Hashtbl.reset t.frames);
    t.pinned <- true;
    Ok ()
  | Error _ as e -> e

let pinned t = t.pinned

let read_page_result t id =
  if id < 0 || id >= t.stable_count then begin
    Mutex.protect t.lock (fun () -> t.failures <- t.failures + 1);
    invalid_arg
      (Printf.sprintf "Pager.read_page: page %d out of bounds (page count %d)"
         id t.stable_count)
  end
  else
    match t.mapped with
    | Some m -> begin
      let page = Atomic.get m.m_pages.(id) in
      if Bytes.length page > 0 then begin
        Atomic.incr t.pinned_reads;
        Ok page
      end
      else begin
        (* first touch: copy the slice out of the map *)
        let off, len = m.m_slices.(id) in
        let data = Bytes.create len in
        Ir.Codec.buf_blit m.m_buf ~src_off:off data ~dst_off:0 ~len;
        Mutex.protect t.lock (fun () ->
            t.misses <- t.misses + 1;
            t.bytes_transferred <- t.bytes_transferred + len);
        Atomic.set m.m_pages.(id) data;
        Atomic.incr t.pinned_reads;
        Ok data
      end
    end
    | None ->
      if t.pinned then begin
        Atomic.incr t.pinned_reads;
        Ok t.stable.(id)
      end
      else
        Mutex.protect t.lock (fun () ->
        t.reads <- t.reads + 1;
        t.clock <- t.clock + 1;
        match Hashtbl.find_opt t.frames id with
        | Some frame ->
          frame.tick <- t.clock;
          Ok frame.data
        | None -> begin
          t.misses <- t.misses + 1;
          match transfer t id with
          | Error e ->
            t.failures <- t.failures + 1;
            Error e
          | Ok data ->
            (* The copy is the simulated disk-to-pool transfer. *)
            t.bytes_transferred <- t.bytes_transferred + Bytes.length data;
            if Hashtbl.length t.frames >= t.pool_pages then evict_lru t;
            Hashtbl.replace t.frames id { page_id = id; data; tick = t.clock };
            Ok data
        end)

let stable_page t id =
  if id < 0 || id >= t.stable_count then
    invalid_arg
      (Printf.sprintf "Pager.stable_page: page %d out of bounds (page count %d)"
         id t.stable_count);
  match t.mapped with
  | None -> t.stable.(id)
  | Some m ->
    let page = Atomic.get m.m_pages.(id) in
    if Bytes.length page > 0 then page
    else begin
      let off, len = m.m_slices.(id) in
      let data = Bytes.create len in
      Ir.Codec.buf_blit m.m_buf ~src_off:off data ~dst_off:0 ~len;
      data
    end

let read_page t id =
  match read_page_result t id with
  | Ok data -> data
  | Error e -> raise (Read_error e)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        page_count = t.stable_count;
        reads = t.reads + Atomic.get t.pinned_reads;
        misses = t.misses;
        bytes_transferred = t.bytes_transferred;
        failures = t.failures;
      })

let reset_stats t =
  Mutex.protect t.lock (fun () ->
      t.reads <- 0;
      t.misses <- 0;
      t.bytes_transferred <- 0;
      t.failures <- 0;
      Atomic.set t.pinned_reads 0)

let clear_pool t = Mutex.protect t.lock (fun () -> Hashtbl.reset t.frames)
