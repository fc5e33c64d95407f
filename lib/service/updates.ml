let src = Logs.Src.create "tix.updates" ~doc:"TIX live-update coordinator"

module Log = (val Logs.src_log src)

type t = {
  live : Store.Live.t;
  scheduler : Scheduler.t;
  publish : Mutex.t;
  every_docs : int option;
  feedback_path : string option;
  (* Background-checkpoint coordination. [ck_running] covers both the
     worker thread and synchronous [checkpoint ~wait:true] callers, so
     at most one checkpoint is in flight at a time; [ck_requested]
     dedupes pending async requests. *)
  ck_lock : Mutex.t;
  ck_cond : Condition.t;
  mutable ck_requested : bool;
  mutable ck_running : bool;
  mutable ck_shutdown : bool;
  mutable ck_worker : Thread.t option;
}

type error = Store_error of Store.Live.error | Snapshot_error of string

let error_code = function
  | Store_error (Store.Live.Mutation_error e) -> begin
    match e with
    | Store.Delta.Duplicate_document _ -> "duplicate_document"
    | Store.Delta.Unknown_document _ -> "unknown_document"
    | Store.Delta.Parse_failed _ -> "parse_error"
  end
  | Store_error (Store.Live.Wal_error (Store.Wal.Sync_failed _)) ->
    "sync_failed"
  | Store_error (Store.Live.Wal_error _) -> "storage"
  | Store_error (Store.Live.Image_error _) -> "storage"
  | Store_error Store.Live.Checkpoint_in_progress -> "checkpoint_in_progress"
  | Snapshot_error _ -> "storage"

let error_message = function
  | Store_error e -> Store.Live.error_to_string e
  | Snapshot_error m -> m

let live t = t.live

(* ------------------------------------------------------------------ *)
(* Feedback persistence *)

let feedback_file = "feedback.dat"

let save_feedback t (snapshot : Engine.snapshot) =
  match t.feedback_path with
  | None -> ()
  | Some path -> begin
    let payload = Ir.Stats.Feedback.to_string snapshot.Engine.feedback in
    let tmp = path ^ ".tmp" in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc payload);
      Sys.rename tmp path
    with
    | () ->
      Log.debug (fun m ->
          m "persisted %d feedback corrections to %s"
            (Ir.Stats.Feedback.observations snapshot.Engine.feedback)
            path)
    | exception Sys_error e ->
      Log.warn (fun m -> m "feedback persistence failed: %s" e)
  end

let load_feedback ~dir =
  let path = Filename.concat dir feedback_file in
  if not (Sys.file_exists path) then None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | payload -> begin
      match Ir.Stats.Feedback.of_string payload with
      | Some fb ->
        Log.info (fun m ->
            m "restored %d feedback corrections from %s"
              (Ir.Stats.Feedback.observations fb)
              path);
        Some fb
      | None ->
        Log.warn (fun m -> m "ignoring corrupt feedback table %s" path);
        None
    end
    | exception (Sys_error _ | End_of_file) -> None

(* ------------------------------------------------------------------ *)
(* Snapshot publication *)

(* Publish the store's committed delta value, over the value's own
   base, at generation + 1. The served base snapshot (and its pinned
   pager) is reused; a new one is opened only when the value sits on
   another base, which a checkpoint install brings. Callers hold
   [t.publish], so generations follow the order of the values. *)
let publish t =
  let current = Scheduler.snapshot t.scheduler in
  let delta = Store.Live.delta t.live in
  let generation = current.Engine.generation + 1 in
  let base = Store.Delta.base delta in
  let over =
    if base == current.Engine.db then Ok { current with Engine.generation }
    else
      Engine.of_db ~feedback:current.Engine.feedback ~generation
        ~source:(Store.Live.checkpoint_path ~dir:(Store.Live.dir t.live))
        base
  in
  match over with
  | Error msg -> Error (Snapshot_error msg)
  | Ok snapshot -> begin
    let next = Engine.with_delta snapshot delta in
    match Scheduler.reload t.scheduler next with
    | Ok () -> Ok next
    | Error e -> Error (Snapshot_error (Scheduler.reload_error_to_string e))
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint execution *)

(* The begin/prepare/install split keeps the expensive merge
   ([Store.Db.compact] + image save) off every lock: mutations and
   queries proceed against the committed values while
   [checkpoint_prepare] runs. Only the final install and its publish
   hold the publish lock. *)
let do_checkpoint t =
  match Store.Live.checkpoint_begin t.live with
  | Error e -> Error (Store_error e)
  | Ok token -> begin
    match Store.Live.checkpoint_prepare t.live token with
    | Error e ->
      (match Store.Live.checkpoint_abort t.live with
      | Ok () -> ()
      | Error ae ->
        Log.err (fun m ->
            m "checkpoint abort failed: %s" (Store.Live.error_to_string ae)));
      Error (Store_error e)
    | Ok (merged, path) ->
      Mutex.protect t.publish (fun () ->
          Store.Live.checkpoint_install t.live merged path;
          match publish t with
          | Error e -> Error e
          | Ok next ->
            Metrics.incr (Metrics.counter "checkpoints.total");
            save_feedback t next;
            Log.info (fun m ->
                m "checkpoint installed: %s (generation %d)" path
                  next.Engine.generation);
            Ok (path, next.Engine.generation))
  end

let run_guarded t =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.ck_lock;
      t.ck_running <- false;
      Condition.broadcast t.ck_cond;
      Mutex.unlock t.ck_lock)
    (fun () ->
      let outcome = do_checkpoint t in
      (match outcome with
      | Ok _ -> ()
      | Error e ->
        Metrics.incr (Metrics.counter "checkpoints.failed");
        Log.err (fun m -> m "checkpoint failed: %s" (error_message e)));
      outcome)

let worker t () =
  let rec loop () =
    Mutex.lock t.ck_lock;
    while (not t.ck_shutdown) && ((not t.ck_requested) || t.ck_running) do
      Condition.wait t.ck_cond t.ck_lock
    done;
    if t.ck_shutdown then Mutex.unlock t.ck_lock
    else begin
      t.ck_requested <- false;
      t.ck_running <- true;
      Mutex.unlock t.ck_lock;
      (try ignore (run_guarded t)
       with e ->
         Log.err (fun m ->
             m "background checkpoint raised: %s" (Printexc.to_string e)));
      loop ()
    end
  in
  loop ()

type checkpoint_status = Completed of string * int | Started

let checkpoint ?(wait = true) t =
  if wait then begin
    (* Run on the caller's thread, after any in-flight background run
       drains, so the response carries the real outcome. *)
    Mutex.lock t.ck_lock;
    while t.ck_running do
      Condition.wait t.ck_cond t.ck_lock
    done;
    t.ck_requested <- false;
    t.ck_running <- true;
    Mutex.unlock t.ck_lock;
    Result.map (fun (path, gen) -> Completed (path, gen)) (run_guarded t)
  end
  else begin
    Mutex.lock t.ck_lock;
    if not (t.ck_requested || t.ck_running) then begin
      t.ck_requested <- true;
      Condition.broadcast t.ck_cond
    end;
    Mutex.unlock t.ck_lock;
    Ok Started
  end

let checkpoint_in_progress t =
  Mutex.lock t.ck_lock;
  let r = t.ck_running || t.ck_requested in
  Mutex.unlock t.ck_lock;
  r

(* Checkpoint automatically once the delta holds [every_docs]
   documents + tombstones. Requests are deduped: while one checkpoint
   is pending or running, the trigger is a no-op. *)
let maybe_trigger t =
  match t.every_docs with
  | None -> ()
  | Some n ->
    if not (checkpoint_in_progress t) then begin
      let s = Store.Live.stats t.live in
      let docs = s.Store.Live.delta_documents + s.Store.Live.tombstones in
      if docs >= n then begin
        Log.info (fun m ->
            m "auto checkpoint trigger: delta=%d docs, wal=%d bytes" docs
              s.Store.Live.wal_bytes);
        Metrics.incr (Metrics.counter "checkpoints.auto");
        ignore (checkpoint ~wait:false t)
      end
    end

(* ------------------------------------------------------------------ *)
(* Mutations *)

let counted name outcome =
  (match outcome with
  | Ok _ -> Metrics.incr (Metrics.counter ("ingest." ^ name))
  | Error _ -> Metrics.incr (Metrics.counter "ingest.rejected"));
  outcome

let mutate t name op =
  let outcome =
    match op () with
    | Error e -> Error (Store_error e)
    | Ok () ->
      Metrics.incr (Metrics.counter "wal.appends");
      Mutex.protect t.publish (fun () -> publish t)
      |> Result.map (fun next -> next.Engine.generation)
  in
  let outcome = counted name outcome in
  (match outcome with Ok _ -> maybe_trigger t | Error _ -> ());
  outcome

let insert t ~name ~xml =
  mutate t "inserts" (fun () -> Store.Live.insert t.live ~name ~xml)

let delete t ~name =
  mutate t "deletes" (fun () -> Store.Live.delete t.live ~name)

let update t ~name ~xml =
  mutate t "updates" (fun () -> Store.Live.update t.live ~name ~xml)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let create ?every_docs ~live ~scheduler () =
  let t =
    {
      live;
      scheduler;
      publish = Mutex.create ();
      every_docs;
      feedback_path =
        Some (Filename.concat (Store.Live.dir live) feedback_file);
      ck_lock = Mutex.create ();
      ck_cond = Condition.create ();
      ck_requested = false;
      ck_running = false;
      ck_shutdown = false;
      ck_worker = None;
    }
  in
  t.ck_worker <- Some (Thread.create (worker t) ());
  t

let shutdown t =
  Mutex.lock t.ck_lock;
  t.ck_shutdown <- true;
  Condition.broadcast t.ck_cond;
  Mutex.unlock t.ck_lock;
  match t.ck_worker with
  | Some th ->
    Thread.join th;
    t.ck_worker <- None
  | None -> ()
