(** Per-query resource governor.

    A query executes under a {!t} created from its {!limits}: every
    unit of work — an evaluated expression, a decoded tuple, an
    emitted node — calls {!tick}, and materialized intermediate
    results are gated by {!check_results}. The first limit breached
    raises {!Resource_exhausted}, which unwinds the query cleanly;
    the database itself holds no governor state, so the next query
    starts fresh.

    The wall clock is sampled every 128 steps, keeping the common
    case a counter increment. *)

type limits = {
  max_steps : int option;  (** budget of work units *)
  timeout_s : float option;  (** wall-clock budget in seconds *)
  max_results : int option;  (** cap on materialized tuples/results *)
}

val unlimited : limits
(** No bounds — every field [None]. *)

val limits :
  ?max_steps:int -> ?timeout_s:float -> ?max_results:int -> unit -> limits

type reason = Steps | Timeout | Results

type violation = {
  reason : reason;
  steps : int;  (** steps executed when the limit was hit *)
  elapsed_s : float;
  limit : string;  (** the breached limit, printed *)
}

exception Resource_exhausted of violation

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

type t

val start : limits -> t
(** Begin a governed execution; the deadline clock starts now. *)

val tick : t -> unit
(** Account one unit of work. Raises {!Resource_exhausted}. *)

val tick_n : t -> int -> unit
(** Account [n] units at once (bulk operators). *)

val check_results : t -> int -> unit
(** Fail if a materialized result set of [n] rows exceeds the cap. *)

val check_deadline : t -> unit
(** Sample the clock now, regardless of the 128-step cadence. *)

val steps : t -> int
(** Work accounted so far. *)

(** {1 Shared budgets}

    A parallel query runs one chunk per domain, and a query over a
    pending delta one run per segment, each under its own {!t}, but
    the user's [--max-steps]/[--timeout] bound the {e whole} query. A
    {!shared} budget holds the limits, one atomic step
    counter and one absolute deadline; each domain {!attach}es a
    private governor whose ticks stay domain-local and are flushed
    into the shared counter at the same 128-step cadence as the clock
    sample. The first breach trips the budget exactly once — every
    domain that breaches or observes the trip raises the {e same}
    {!violation}, so the coordinator reports one typed error. *)

type shared

val make_shared : limits -> shared
(** Begin a shared governed execution; the deadline clock starts now. *)

val attach : shared -> t
(** A private governor drawing on the shared budget. Its deadline is
    the shared absolute deadline, not a fresh one. *)

val settle : t -> unit
(** Flush an attached governor's unflushed steps into the shared
    counter, checking the budget; call when a chunk completes. No-op
    for unattached governors. *)

val shared_steps : shared -> int
(** Total steps flushed by all attached governors so far. *)

val shared_violation : shared -> violation option
(** The violation that tripped the budget, if any. *)

val shared_check_results : shared -> int -> unit
(** {!check_results} against the shared limits (re-raising the tripping
    violation if the budget is already blown). A violation reports
    the {!shared_steps} total. *)

val shared_check_deadline : shared -> unit
(** Sample the clock against the shared deadline now; a violation
    reports the {!shared_steps} total. *)
