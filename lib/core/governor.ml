type limits = {
  max_steps : int option;
  timeout_s : float option;
  max_results : int option;
}

let unlimited = { max_steps = None; timeout_s = None; max_results = None }

let limits ?max_steps ?timeout_s ?max_results () =
  { max_steps; timeout_s; max_results }

type reason = Steps | Timeout | Results

type violation = {
  reason : reason;
  steps : int;
  elapsed_s : float;
  limit : string;
}

exception Resource_exhausted of violation

let pp_violation ppf v =
  Format.fprintf ppf "resource exhausted after %d steps (%.3f s): %s" v.steps
    v.elapsed_s v.limit

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* A shared budget: several governors (one per domain of a parallel
   query) draw steps from one atomic counter against one limit set,
   and race to record exactly one violation — every participant that
   breaches (or observes the breach) raises the same [violation]
   value, so the query reports one typed error, not one per domain. *)
type shared = {
  sh_l : limits;
  sh_started : float;
  sh_deadline : float;
  sh_steps : int Atomic.t;
  sh_tripped : violation option Atomic.t;
}

type t = {
  l : limits;
  started : float;
  deadline : float;  (** absolute; [infinity] when unbounded *)
  mutable steps : int;
  shared : shared option;
  mutable flushed : int;  (** local steps already pushed to [shared] *)
}

let now () = Unix.gettimeofday ()

let start l =
  let started = now () in
  {
    l;
    started;
    deadline =
      (match l.timeout_s with Some s -> started +. s | None -> infinity);
    steps = 0;
    shared = None;
    flushed = 0;
  }

let make_shared l =
  let started = now () in
  {
    sh_l = l;
    sh_started = started;
    sh_deadline =
      (match l.timeout_s with Some s -> started +. s | None -> infinity);
    sh_steps = Atomic.make 0;
    sh_tripped = Atomic.make None;
  }

(* The attached governor inherits the shared limits and the shared
   absolute deadline: a chunk started late in the query's life gets
   only the remaining budget, not a fresh one. *)
let attach sh =
  {
    l = sh.sh_l;
    started = sh.sh_started;
    deadline = sh.sh_deadline;
    steps = 0;
    shared = Some sh;
    flushed = 0;
  }

let steps t = t.steps
let shared_steps sh = Atomic.get sh.sh_steps
let shared_violation sh = Atomic.get sh.sh_tripped

(* First violation wins; everyone raises the winning value. *)
let trip_shared sh v =
  ignore (Atomic.compare_and_set sh.sh_tripped None (Some v) : bool);
  match Atomic.get sh.sh_tripped with
  | Some v -> raise (Resource_exhausted v)
  | None -> raise (Resource_exhausted v)

let exhaust t reason limit =
  let v =
    { reason; steps = t.steps; elapsed_s = now () -. t.started; limit }
  in
  match t.shared with
  | Some sh -> trip_shared sh v
  | None -> raise (Resource_exhausted v)

let reraise_if_tripped sh =
  match Atomic.get sh.sh_tripped with
  | Some v -> raise (Resource_exhausted v)
  | None -> ()

(* Push unflushed local steps into the shared counter and check the
   shared budget. Called sparsely (the 128-step cadence of the clock
   sample) so the hot path stays one private increment. *)
let flush_shared t sh =
  reraise_if_tripped sh;
  let delta = t.steps - t.flushed in
  let total =
    if delta > 0 then begin
      t.flushed <- t.steps;
      Atomic.fetch_and_add sh.sh_steps delta + delta
    end
    else Atomic.get sh.sh_steps
  in
  match sh.sh_l.max_steps with
  | Some m when total > m ->
    let v =
      {
        reason = Steps;
        steps = total;
        elapsed_s = now () -. t.started;
        limit = Printf.sprintf "step budget of %d" m;
      }
    in
    trip_shared sh v
  | Some _ | None -> ()

let past_deadline t =
  if t.deadline < infinity && now () > t.deadline then
    exhaust t Timeout
      (Printf.sprintf "deadline of %g s" (t.deadline -. t.started))

let check_deadline t =
  (match t.shared with Some sh -> flush_shared t sh | None -> ());
  past_deadline t

let check_steps t =
  match t.shared with
  | Some _ ->
    (* shared budgets are only enforced at the flush cadence — the
       counter is shared, so a per-tick atomic would serialize the
       domains the budget is meant to let run free *)
    ()
  | None -> begin
    match t.l.max_steps with
    | Some m when t.steps > m ->
      exhaust t Steps (Printf.sprintf "step budget of %d" m)
    | Some _ | None -> ()
  end

let tick t =
  t.steps <- t.steps + 1;
  check_steps t;
  (* sample the clock sparsely: ticks are the hot path *)
  if t.steps land 127 = 0 then check_deadline t

let tick_n t n =
  if n > 0 then begin
    let before = t.steps lsr 7 in
    t.steps <- t.steps + n;
    check_steps t;
    if t.steps lsr 7 <> before then check_deadline t
    else match t.shared with
      | Some sh when t.steps - t.flushed >= 128 -> flush_shared t sh
      | Some _ | None -> ()
  end

(* Settle an attached governor's unflushed steps into the shared
   counter (checking the budget one last time); call when a chunk of
   parallel work completes. *)
let settle t =
  match t.shared with Some sh -> flush_shared t sh | None -> ()

let check_results t n =
  match t.l.max_results with
  | Some m when n > m ->
    exhaust t Results
      (Printf.sprintf "result cap of %d (got %d)" m n)
  | Some _ | None -> ()

(* The shared checks run on a governor that holds the shared step
   total, so a violation reports the steps the whole query took. *)
let settled sh =
  reraise_if_tripped sh;
  let total = Atomic.get sh.sh_steps in
  { (attach sh) with steps = total; flushed = total }

let shared_check_results sh n = check_results (settled sh) n
let shared_check_deadline sh = past_deadline (settled sh)
