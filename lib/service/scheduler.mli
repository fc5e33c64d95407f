(** Fixed pool of domain workers behind a bounded submission queue.

    Admission control is the queue bound: {!submit} on a full queue
    returns [Error Overloaded] immediately — callers shed load
    instead of blocking the accept path. Every admitted request runs
    under a fresh {!Core.Governor.t} built from the pool's default
    limits (tightened per request), so one expensive query cannot
    starve the pool for ever.

    The snapshot is swappable: {!reload} installs a new generation
    atomically and invalidates both caches; in-flight queries finish
    against the snapshot they started with. *)

type t

type error = Overloaded | Closed

val error_code : error -> string

type 'a promise

val await : 'a promise -> 'a
(** Block the calling thread until a worker fulfils the promise. *)

val poll : 'a promise -> 'a option

val create :
  ?workers:int ->
  ?queue_depth:int ->
  ?limits:Core.Governor.limits ->
  ?max_parallelism:int ->
  ?plan_cache_capacity:int ->
  ?result_cache_capacity:int ->
  Engine.snapshot ->
  t
(** [workers] defaults to [Domain.recommended_domain_count () - 1]
    (min 1, max 8); [queue_depth] to [4 * workers]; cache capacities
    to 256 (plans) and 1024 (results); capacity 0 disables a cache.
    [max_parallelism] (default 1, i.e. disabled) caps the intra-query
    parallelism any single request may ask for. *)

val submit :
  t ->
  ?limits:Core.Governor.limits ->
  ?k:int ->
  ?theta:float ->
  ?trace:bool ->
  ?parallelism:int ->
  Engine.request ->
  ((Engine.result, Engine.error) result promise, error) result
(** Non-blocking admission. [limits] tightens (never loosens) the
    pool's defaults; [theta] and [trace] are forwarded to
    {!Engine.exec}; [parallelism] is clamped to the pool's
    [max_parallelism] and forwarded. *)

val run :
  t ->
  ?limits:Core.Governor.limits ->
  ?k:int ->
  ?theta:float ->
  ?trace:bool ->
  ?parallelism:int ->
  Engine.request ->
  ((Engine.result, Engine.error) result, error) result
(** {!submit} + {!await}. *)

val explain : t -> string -> (string, Engine.error) result
(** {!Engine.explain} against the pool's plan cache; runs inline on
    the calling thread (compilation only, no query execution). *)

val submit_fn : t -> (unit -> unit) -> (unit promise, error) result
(** Enqueue an opaque thunk (tests and benchmarks: occupying workers
    deterministically, draining barriers). Subject to the same
    admission control as queries. *)

val prepare : t -> string -> (int, Engine.error) result
(** Register a query text as a prepared statement, compiling it into
    the plan cache now through {!explain}, whose error it returns for
    a query outside the compilable fragment; returns a dense id valid
    until {!shutdown}. Re-preparing the same canonical text returns
    the existing id. *)

val prepared : t -> int -> string option

val snapshot : t -> Engine.snapshot
val caches : t -> Engine.caches

type reload_error = Same_generation of { generation : int }

val reload_error_to_string : reload_error -> string

val reload : t -> Engine.snapshot -> (unit, reload_error) result
(** Install a snapshot and clear the plan and result caches. The new
    snapshot's [generation] must differ from the installed one:
    result-cache keys embed the generation, so installing a different
    snapshot under the same generation would let stale entries serve
    the new data — such a reload is rejected with
    [Same_generation]. *)

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

val stats : t -> stats

val shutdown : t -> unit
(** Drain the queue, stop accepting work, join every worker domain.
    Idempotent. *)
