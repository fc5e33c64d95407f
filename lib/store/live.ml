let src = Logs.Src.create "tix.live" ~doc:"TIX live (updatable) store"

module Log = (val Logs.src_log src)

type error =
  | Wal_error of Wal.error
  | Mutation_error of Delta.mutation_error
  | Image_error of Db.error
  | Checkpoint_in_progress

let pp_error ppf = function
  | Wal_error e -> Wal.pp_error ppf e
  | Mutation_error e -> Delta.pp_mutation_error ppf e
  | Image_error e -> Db.pp_error ppf e
  | Checkpoint_in_progress ->
    Format.fprintf ppf "a checkpoint is already in progress"

let error_to_string e = Format.asprintf "%a" pp_error e

(* A mutation waiting in the group-commit queue. [p_delta] is the
   committed value with this record and every record queued before it
   applied. [p_result] is set by the batch leader once the record's
   fate is known; [None] means the record is still queued or in
   flight. *)
type pending = {
  p_record : Wal.record;
  mutable p_delta : Delta.t;
  mutable p_result : (unit, error) result option;
}

type t = {
  t_dir : string;
  mutable delta : Delta.t;  (* committed: every durable record applied *)
  mutable wal : Wal.t;  (* swapped at checkpoint rotation *)
  mutex : Mutex.t;
  gc_done : Condition.t;  (* batch finished / leadership released *)
  mutable checkpoints : int;
  (* group commit *)
  gc_max_batch : int;
  gc_queue : pending Queue.t;  (* arrival order *)
  mutable gc_leader : bool;
  mutable gc_batches : int;
  mutable gc_records : int;
  mutable gc_largest : int;
  (* two-level checkpoint *)
  mutable frozen : Delta.t option;  (* the committed value at begin *)
  mutable ck_suffix : Wal.record list;  (* applied since freeze, reversed *)
}

type base_source = From_checkpoint of string | Provided | Empty

type opened = {
  live : t;
  recovery : Wal.recovery;
  replay : Delta.replay_report;
  base_source : base_source;
}

let wal_path ~dir = Filename.concat dir "wal.log"
let frozen_wal_path ~dir = Filename.concat dir "wal.frozen.log"
let checkpoint_path ~dir = Filename.concat dir "checkpoint.tix"

(* A crash between checkpoint rotation and install leaves two logs:
   the rotated [wal.frozen.log] (records covered by the interrupted
   merge) and the live [wal.log] (the suffix). Recovery merges them
   back into a single live log — frozen records first, in the exact
   order they committed — so the normal single-log open below sees
   everything. Returns the torn-tail bytes the pre-merge opens
   discarded. *)
let merge_frozen_log ~dir =
  let fpath = frozen_wal_path ~dir in
  if not (Sys.file_exists fpath) then Ok 0
  else begin
    let wpath = wal_path ~dir in
    match Wal.open_ fpath with
    | Error e -> Error (Wal_error e)
    | Ok (fw, frec) -> begin
      Wal.close fw;
      let suffix_result =
        if Sys.file_exists wpath then begin
          match Wal.open_ wpath with
          | Error e -> Error (Wal_error e)
          | Ok (w, crec) ->
            Wal.close w;
            Ok (crec.Wal.records, crec.Wal.truncated_bytes)
        end
        else Ok ([], 0)
      in
      match suffix_result with
      | Error e -> Error e
      | Ok (suffix, suffix_trunc) -> begin
        match Wal.save_records wpath (frec.Wal.records @ suffix) with
        | Error e -> Error (Wal_error e)
        | Ok () ->
          (try Sys.remove fpath with Sys_error _ -> ());
          Log.info (fun m ->
              m
                "%s: merged interrupted-checkpoint log (%d frozen + %d \
                 suffix records)"
                dir
                (List.length frec.Wal.records)
                (List.length suffix));
          Ok (frec.Wal.truncated_bytes + suffix_trunc)
      end
    end
  end

let open_dir ?fault ?base ?(wal_batch = 64) ~dir () =
  let cpath = checkpoint_path ~dir in
  let base_result =
    if Sys.file_exists cpath then
      match Db.open_file cpath with
      | Ok db -> Ok (db, From_checkpoint cpath)
      | Error e -> Error (Image_error e)
    else
      match base with
      | Some db -> Ok (db, Provided)
      | None -> Ok (Db.of_documents [], Empty)
  in
  match base_result with
  | Error e -> Error e
  | Ok (base, base_source) -> begin
    match merge_frozen_log ~dir with
    | Error e -> Error e
    | Ok merged_trunc -> begin
      match Wal.open_ ?fault (wal_path ~dir) with
      | Error e -> Error (Wal_error e)
      | Ok (wal, recovery) ->
        let recovery =
          {
            recovery with
            Wal.truncated_bytes = recovery.Wal.truncated_bytes + merged_trunc;
          }
        in
        let delta, replay =
          Delta.replay (Delta.create ~base) recovery.Wal.records
        in
        if recovery.Wal.records <> [] then
          Log.info (fun m ->
              m "%s: replayed %d WAL record%s (%d applied, %d skipped)" dir
                (List.length recovery.Wal.records)
                (if List.length recovery.Wal.records = 1 then "" else "s")
                replay.Delta.applied replay.Delta.skipped);
        Ok
          {
            live =
              {
                t_dir = dir;
                delta;
                wal;
                mutex = Mutex.create ();
                gc_done = Condition.create ();
                checkpoints = 0;
                gc_max_batch = max 1 wal_batch;
                gc_queue = Queue.create ();
                gc_leader = false;
                gc_batches = 0;
                gc_records = 0;
                gc_largest = 0;
                frozen = None;
                ck_suffix = [];
              };
            recovery;
            replay;
            base_source;
          }
    end
  end

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* Group commit.

   A mutation is validated by applying it, under the mutex, to the
   queue's tail value (the committed value plus every queued record),
   and is enqueued with the value that gives. The first thread to find
   no active leader becomes the batch leader: it takes up to
   [gc_max_batch] queued records, releases the mutex, commits them
   with ONE write + ONE fsync ([Wal.append_many]), re-acquires the
   mutex, commits the last record's value and wakes every waiter.
   Durability is unchanged — a record is acknowledged only after the
   fsync covering its frame returns — but N acknowledgements now share
   one sync. Batching is natural: while the leader is inside fsync the
   mutex is free, so concurrent writers pile into the queue and the
   next leader drains them in one batch. *)

let tail t = Queue.fold (fun _ p -> p.p_delta) t.delta t.gc_queue

(* Re-derive every queued value from the committed one, in queue
   order. A record that no longer applies is failed and leaves the
   queue; its waiter is woken. *)
let rebase t =
  let queued = List.of_seq (Queue.to_seq t.gc_queue) in
  Queue.clear t.gc_queue;
  let (_ : Delta.t) =
    List.fold_left
      (fun d p ->
        match Delta.apply d p.p_record with
        | Ok d ->
          p.p_delta <- d;
          Queue.push p t.gc_queue;
          d
        | Error e ->
          p.p_result <- Some (Error (Mutation_error e));
          d)
      t.delta queued
  in
  Condition.broadcast t.gc_done

type batch_outcome = Committed | Failed of Wal.error | Crashed of exn

let rec drive t p =
  match p.p_result with
  | Some r -> r
  | None ->
    if t.gc_leader then begin
      Condition.wait t.gc_done t.mutex;
      drive t p
    end
    else begin
      t.gc_leader <- true;
      let batch_n = min (Queue.length t.gc_queue) t.gc_max_batch in
      let batch = List.of_seq (Seq.take batch_n (Queue.to_seq t.gc_queue)) in
      let records = List.map (fun b -> b.p_record) batch in
      let wal = t.wal in
      Mutex.unlock t.mutex;
      let outcome =
        match Wal.append_many wal records with
        | Ok () -> Committed
        | Error e -> Failed e
        | exception e -> Crashed e
      in
      Mutex.lock t.mutex;
      for _ = 1 to batch_n do
        ignore (Queue.pop t.gc_queue)
      done;
      (match outcome with
      | Committed ->
        t.gc_batches <- t.gc_batches + 1;
        t.gc_records <- t.gc_records + batch_n;
        if batch_n > t.gc_largest then t.gc_largest <- batch_n;
        t.delta <- (List.nth batch (batch_n - 1)).p_delta;
        if t.frozen <> None then
          t.ck_suffix <- List.rev_append records t.ck_suffix;
        List.iter (fun b -> b.p_result <- Some (Ok ())) batch
      | Failed e ->
        (* one sync covered the whole batch: none of it is durable *)
        List.iter (fun b -> b.p_result <- Some (Error (Wal_error e))) batch;
        rebase t
      | Crashed _ ->
        (* the simulated process died mid-batch; waiters must not
           hang — resolve them with a typed loss before the leader
           re-raises its own death *)
        List.iter
          (fun b ->
            b.p_result <-
              Some
                (Error
                   (Wal_error
                      (Wal.Io_error
                         {
                           path = Wal.path wal;
                           detail = "append lost in simulated crash";
                         }))))
          batch;
        rebase t);
      t.gc_leader <- false;
      Condition.broadcast t.gc_done;
      match outcome with Crashed e -> raise e | _ -> drive t p
    end

(* Validate (by applying) → enqueue → (batched) log → commit. The
   record reaches the WAL only when it is known to apply cleanly, so
   recovery never replays a rejected mutation; and its value is
   committed only once it is durable, so an acknowledged mutation
   survives a crash. *)
let mutate t record =
  locked t (fun () ->
      match Delta.apply (tail t) record with
      | Error e -> Error (Mutation_error e)
      | Ok d ->
        let p = { p_record = record; p_delta = d; p_result = None } in
        Queue.push p t.gc_queue;
        drive t p)

let insert t ~name ~xml = mutate t (Wal.Insert { name; xml })
let delete t ~name = mutate t (Wal.Delete { name })
let update t ~name ~xml = mutate t (Wal.Update { name; xml })

(* ------------------------------------------------------------------ *)
(* Two-level checkpoint.

   [checkpoint_begin] keeps the committed delta value as the frozen
   one and rotates the WAL: the committed log becomes [wal.frozen.log]
   (it holds exactly the records the frozen value reflects) and a
   fresh [wal.log] picks up the suffix. Mutations and reads continue
   immediately — later values build on the frozen one, and every
   post-freeze record is also remembered in [ck_suffix].

   [checkpoint_prepare] (off every lock) merges the frozen value's
   base, index and tombstones via [Db.compact] and saves the image
   atomically and durably: fsynced before its rename, its directory
   after. [checkpoint_install] (briefly under the mutex) commits
   a value over the merged image, rebuilt by replaying the suffix,
   re-derives the queue from it, and deletes the frozen log — the live
   [wal.log] already holds exactly the still-pending records.
   [checkpoint_abort] undoes a failed merge by rebuilding a single
   live log (frozen records + suffix) atomically; the committed value
   already holds both.

   Crash matrix: before the rotation rename → the single-log open
   recovers as before; between rotation and install → [open_dir]
   merges [wal.frozen.log] back under [wal.log] and replays
   everything; between image save and frozen-log delete → the frozen
   records replay leniently onto the already-merged image, which is
   idempotent. No acknowledged record is ever outside
   [checkpoint image ∪ wal.frozen.log ∪ wal.log]. *)

type checkpoint_token = Delta.t

let checkpoint_in_progress t = locked t (fun () -> t.frozen <> None)

let wait_batch t =
  while t.gc_leader do
    Condition.wait t.gc_done t.mutex
  done

let rotate_wal t =
  let dir = t.t_dir in
  let wpath = wal_path ~dir and fpath = frozen_wal_path ~dir in
  match Durable.rename ~src:wpath ~dst:fpath with
  | exception Sys_error detail ->
    Error (Wal_error (Wal.Io_error { path = wpath; detail }))
  | () -> begin
    match Wal.open_ ?fault:(Wal.fault t.wal) wpath with
    | Error e ->
      (* undo the rotation so the store stays single-log *)
      (try Durable.rename ~src:fpath ~dst:wpath with Sys_error _ -> ());
      Error (Wal_error e)
    | Ok (fresh, _) ->
      Wal.set_append_index fresh (Wal.append_index t.wal);
      Wal.close t.wal;
      t.wal <- fresh;
      Ok ()
  end

let checkpoint_begin t =
  locked t (fun () ->
      if t.frozen <> None then Error Checkpoint_in_progress
      else begin
        (* wait out any in-flight batch: rotation must not move the
           log under a leader's feet, and every committed record must
           be in the frozen value so frozen = rotated log *)
        wait_batch t;
        if t.frozen <> None then Error Checkpoint_in_progress
        else begin
          match rotate_wal t with
          | Error e -> Error e
          | Ok () ->
            let frozen = t.delta in
            t.frozen <- Some frozen;
            t.ck_suffix <- [];
            Log.info (fun m ->
                m "%s: checkpoint began (%d delta docs, %d tombstones frozen)"
                  t.t_dir (Delta.doc_count frozen)
                  (Delta.tombstone_count frozen));
            Ok frozen
        end
      end)

let checkpoint_prepare ?path t (frozen : checkpoint_token) =
  let path =
    match path with Some p -> p | None -> checkpoint_path ~dir:t.t_dir
  in
  let merged =
    Db.compact ~base:(Delta.base frozen) ~delta:(Delta.db frozen)
      ~tombstones:(Delta.tombstones frozen)
  in
  let fault = locked t (fun () -> Wal.fault t.wal) in
  match Db.save ?fault merged path with
  | exception Sys_error detail ->
    Error (Image_error (Db.Io_error { path; detail }))
  | () -> Ok (merged, path)

let checkpoint_install t merged path =
  locked t (fun () ->
      (* an in-flight batch must land in [ck_suffix] before the replay,
         and its values sit on the old base *)
      wait_batch t;
      let suffix = List.rev t.ck_suffix in
      let delta, (_ : Delta.replay_report) =
        Delta.replay (Delta.create ~base:merged) suffix
      in
      t.delta <- delta;
      rebase t;
      t.frozen <- None;
      t.ck_suffix <- [];
      t.checkpoints <- t.checkpoints + 1;
      (try Sys.remove (frozen_wal_path ~dir:t.t_dir) with Sys_error _ -> ());
      Log.info (fun m ->
          m "%s: checkpoint #%d installed from %s (%d suffix records carried)"
            t.t_dir t.checkpoints path (List.length suffix)))

let checkpoint_abort t =
  locked t (fun () ->
      match t.frozen with
      | None -> Ok ()
      | Some _ ->
        wait_batch t;
        if t.frozen = None then Ok ()
        else begin
          let dir = t.t_dir in
          let wpath = wal_path ~dir and fpath = frozen_wal_path ~dir in
          match Wal.open_ fpath with
          | Error e -> Error (Wal_error e)
          | Ok (fw, frec) -> begin
            Wal.close fw;
            let suffix = List.rev t.ck_suffix in
            match Wal.save_records wpath (frec.Wal.records @ suffix) with
            | Error e -> Error (Wal_error e)
            | Ok () -> begin
              let fault = Wal.fault t.wal
              and idx = Wal.append_index t.wal in
              match Wal.open_ ?fault wpath with
              | Error e -> Error (Wal_error e)
              | Ok (fresh, _) ->
                Wal.set_append_index fresh idx;
                Wal.close t.wal;
                t.wal <- fresh;
                (try Sys.remove fpath with Sys_error _ -> ());
                t.frozen <- None;
                t.ck_suffix <- [];
                Log.info (fun m -> m "%s: checkpoint aborted" t.t_dir);
                Ok ()
            end
          end
        end)

let checkpoint ?path t =
  match checkpoint_begin t with
  | Error e -> Error e
  | Ok token -> begin
    match checkpoint_prepare ?path t token with
    | Error e ->
      (match checkpoint_abort t with
      | Ok () -> ()
      | Error e' ->
        Log.err (fun m ->
            m "%s: checkpoint abort failed: %s" t.t_dir (error_to_string e')));
      Error e
    | Ok (merged, path) ->
      checkpoint_install t merged path;
      Ok path
  end

let delta t = locked t (fun () -> t.delta)
let base t = Delta.base (delta t)

let view t =
  let d = delta t in
  (Delta.base d, d)

let dir t = t.t_dir

type stats = {
  wal_records : int;
  wal_bytes : int;
  delta_documents : int;
  tombstones : int;
  checkpoints : int;
  frozen_documents : int;
  frozen_tombstones : int;
  checkpoint_in_progress : bool;
  gc_batches : int;
  gc_records : int;
  gc_largest_batch : int;
}

let stats t =
  locked t (fun () ->
      {
        wal_records = Wal.record_count t.wal;
        wal_bytes = Wal.byte_size t.wal;
        delta_documents = Delta.doc_count t.delta;
        tombstones = Delta.tombstone_count t.delta;
        checkpoints = t.checkpoints;
        frozen_documents =
          (match t.frozen with Some f -> Delta.doc_count f | None -> 0);
        frozen_tombstones =
          (match t.frozen with Some f -> Delta.tombstone_count f | None -> 0);
        checkpoint_in_progress = t.frozen <> None;
        gc_batches = t.gc_batches;
        gc_records = t.gc_records;
        gc_largest_batch = t.gc_largest;
      })

let close t = Wal.close t.wal
