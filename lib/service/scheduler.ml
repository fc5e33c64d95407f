type error = Overloaded | Closed

let error_code = function Overloaded -> "overloaded" | Closed -> "closed"

(* A one-shot cell a worker fulfils and any thread can await. *)
type 'a promise = {
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_value : 'a option;
}

let promise () =
  { p_lock = Mutex.create (); p_cond = Condition.create (); p_value = None }

let fulfil p v =
  Mutex.protect p.p_lock (fun () ->
      p.p_value <- Some v;
      Condition.broadcast p.p_cond)

let await p =
  Mutex.lock p.p_lock;
  while p.p_value = None do
    Condition.wait p.p_cond p.p_lock
  done;
  let v = Option.get p.p_value in
  Mutex.unlock p.p_lock;
  v

let poll p = Mutex.protect p.p_lock (fun () -> p.p_value)

type job = {
  work : Engine.snapshot -> unit;
      (* runs on a worker domain; captures its own promise *)
}

type t = {
  queue : job Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  queue_depth : int;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  snap : Engine.snapshot Atomic.t;
  caches : Engine.caches;
  limits : Core.Governor.limits;
  max_parallelism : int;
      (* cap on per-request intra-query parallelism; 1 disables it *)
  mutable submitted : int;
  mutable rejected : int;
  completed : int Atomic.t;
  prepared_lock : Mutex.t;
  prepared_tbl : (int, string) Hashtbl.t;
  prepared_by_key : (string, int) Hashtbl.t;
  mutable next_prepared : int;
}

(* The per-request limits may only tighten the pool's defaults. *)
let tighten (pool : Core.Governor.limits) (req : Core.Governor.limits) =
  let min_opt a b =
    match a, b with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)
  in
  {
    Core.Governor.max_steps = min_opt pool.Core.Governor.max_steps req.max_steps;
    timeout_s = min_opt pool.timeout_s req.timeout_s;
    max_results = min_opt pool.max_results req.max_results;
  }

let worker_loop t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.not_empty t.lock
    done;
    if Queue.is_empty t.queue && t.closed then Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.lock;
      (* jobs never raise: [work] wraps everything into its promise;
         a defensive handler keeps one bad job from killing a domain *)
      (try job.work (Atomic.get t.snap) with _ -> ());
      loop ()
    end
  in
  loop ()

let create ?workers ?queue_depth ?(limits = Core.Governor.unlimited)
    ?(max_parallelism = 1) ?(plan_cache_capacity = 256)
    ?(result_cache_capacity = 1024) snapshot =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (min 8 (Domain.recommended_domain_count () - 1))
  in
  let queue_depth =
    match queue_depth with Some d -> max 1 d | None -> 4 * workers
  in
  let t =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      queue_depth;
      closed = false;
      domains = [];
      snap = Atomic.make snapshot;
      caches =
        {
          Engine.plans = Lru.create ~capacity:plan_cache_capacity;
          results = Lru.create ~capacity:result_cache_capacity;
        };
      limits;
      max_parallelism = max 1 max_parallelism;
      submitted = 0;
      rejected = 0;
      completed = Atomic.make 0;
      prepared_lock = Mutex.create ();
      prepared_tbl = Hashtbl.create 16;
      prepared_by_key = Hashtbl.create 16;
      next_prepared = 1;
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (worker_loop t));
  t

let enqueue t job =
  Mutex.protect t.lock (fun () ->
      if t.closed then begin
        t.rejected <- t.rejected + 1;
        Error Closed
      end
      else if Queue.length t.queue >= t.queue_depth then begin
        t.rejected <- t.rejected + 1;
        Metrics.incr (Metrics.counter "scheduler.rejected");
        Error Overloaded
      end
      else begin
        t.submitted <- t.submitted + 1;
        Queue.push job t.queue;
        Condition.signal t.not_empty;
        Ok ()
      end)

let submit t ?(limits = Core.Governor.unlimited) ?k ?theta ?trace ?parallelism
    request =
  let p = promise () in
  let limits = tighten t.limits limits in
  (* requested intra-query parallelism is clamped to the pool's cap,
     never raised: the operator sizes the domain budget, clients only
     choose how much of it one query may use *)
  let parallelism =
    match parallelism with
    | Some n -> Some (max 1 (min n t.max_parallelism))
    | None -> None
  in
  let work snap =
    let outcome =
      try
        Engine.exec ~caches:t.caches ~limits ?k ?theta ?trace ?parallelism snap
          request
      with exn ->
        Error
          (Engine.Storage
             (Printf.sprintf "internal error: %s" (Printexc.to_string exn)))
    in
    (* count before fulfilling: anyone woken by [await] then observes
       the completion in [stats] *)
    Atomic.incr t.completed;
    fulfil p outcome
  in
  match enqueue t { work } with Ok () -> Ok p | Error _ as e -> e

let run t ?limits ?k ?theta ?trace ?parallelism request =
  match submit t ?limits ?k ?theta ?trace ?parallelism request with
  | Ok p -> Ok (await p)
  | Error _ as e -> e

let explain t q =
  Engine.explain ~caches:t.caches ~snapshot:(Atomic.get t.snap) q

let submit_fn t fn =
  let p = promise () in
  let work _snap =
    (try fn () with _ -> ());
    Atomic.incr t.completed;
    fulfil p ()
  in
  match enqueue t { work } with Ok () -> Ok p | Error _ as e -> e

(* Prepared statements are named queries: {!explain} compiles and
   costs the plan into the plan cache under the key an [`Engine] query
   executes with, so Execute is a plain Query submission that hits
   the cache. *)
let prepare t q =
  let key = Engine.canonical_key (Engine.Query { q; mode = `Engine }) in
  Result.map
    (fun (_ : string) ->
      Mutex.protect t.prepared_lock (fun () ->
          match Hashtbl.find_opt t.prepared_by_key key with
          | Some id -> id
          | None ->
            let id = t.next_prepared in
            t.next_prepared <- id + 1;
            Hashtbl.replace t.prepared_tbl id q;
            Hashtbl.replace t.prepared_by_key key id;
            id))
    (explain t q)

let prepared t id =
  Mutex.protect t.prepared_lock (fun () -> Hashtbl.find_opt t.prepared_tbl id)

let snapshot t = Atomic.get t.snap
let caches t = t.caches

type reload_error = Same_generation of { generation : int }

let reload_error_to_string = function
  | Same_generation { generation } ->
    Printf.sprintf
      "reload rejected: snapshot has the current generation %d (result-cache \
       entries of the old snapshot would survive as hits for the new one)"
      generation

let reload t snapshot =
  let current = Atomic.get t.snap in
  if snapshot.Engine.generation = current.Engine.generation then
    Error (Same_generation { generation = snapshot.Engine.generation })
  else begin
    Atomic.set t.snap snapshot;
    Lru.clear t.caches.Engine.plans;
    Lru.clear t.caches.Engine.results;
    Metrics.incr (Metrics.counter "scheduler.reloads");
    Ok ()
  end

type stats = {
  workers : int;
  queue_depth : int;
  queued : int;
  submitted : int;
  rejected : int;
  completed : int;
  plan_cache : Lru.stats;
  result_cache : Lru.stats;
}

let stats t =
  let queued, submitted, rejected =
    Mutex.protect t.lock (fun () ->
        (Queue.length t.queue, t.submitted, t.rejected))
  in
  {
    workers = List.length t.domains;
    queue_depth = t.queue_depth;
    queued;
    submitted;
    rejected;
    completed = Atomic.get t.completed;
    plan_cache = Lru.stats t.caches.Engine.plans;
    result_cache = Lru.stats t.caches.Engine.results;
  }

let shutdown t =
  let domains =
    Mutex.protect t.lock (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          Condition.broadcast t.not_empty;
          let ds = t.domains in
          t.domains <- [];
          ds
        end)
  in
  List.iter Domain.join domains
