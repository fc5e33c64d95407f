(** Per-query execution tracing for EXPLAIN ANALYZE.

    A tracer is either the shared {!disabled} sentinel — in which case
    every hook is a single boolean test, no allocation, no clock
    sample — or a live tracer created with {!make} that records a tree
    of spans: one per operator invocation, carrying input/output
    cardinalities, governor steps consumed and elapsed wall time.

    Tracers are single-threaded by design: each query runs on one
    domain with its own tracer. *)

type span = {
  mutable name : string;  (** operator name, e.g. ["TermJoin"] *)
  mutable input : int;  (** input cardinality; [-1] = unknown *)
  mutable output : int;  (** output cardinality; [-1] = unknown *)
  mutable est : int;  (** planner-estimated output cardinality; [-1] = none *)
  mutable gov_steps : int;  (** governor steps consumed; [-1] = untracked *)
  mutable elapsed_ns : int;  (** wall time inside the span *)
  mutable attrs : (string * string) list;  (** free-form annotations *)
  mutable children : span list;  (** nested operator spans, in order *)
}

type t

val disabled : t
(** The shared no-op tracer. [enabled disabled = false]. *)

val make : unit -> t
val enabled : t -> bool

val enter : ?input:int -> ?governor:Governor.t -> t -> string -> unit
(** Open a span. When [governor] is given, the step counter is sampled
    so {!leave} can record the delta. *)

val leave : ?output:int -> ?governor:Governor.t -> t -> unit
(** Close the innermost open span, recording elapsed time and — when a
    [governor] was sampled at {!enter} — the steps consumed. *)

val annotate : t -> string -> string -> unit
(** Attach a [key=value] attribute to the innermost open span. *)

val set_input : t -> int -> unit
(** Set the input cardinality of the innermost open span after the
    fact (for operators that only learn it mid-flight). *)

val unwind : t -> unit
(** Close every open frame; used when an exception escapes traced code
    so the partial tree stays well-formed. *)

val span : ?input:int -> ?governor:Governor.t -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a fresh span; exception-safe. *)

val span_list :
  ?input:int -> ?governor:Governor.t -> t -> string -> (unit -> 'a list) -> 'a list
(** Like {!span} but records [List.length result] as the output
    cardinality. *)

val span_count :
  ?input:int -> ?governor:Governor.t -> t -> string -> (unit -> int) -> int
(** Like {!span} for emitter-style operators whose return value is the
    emitted count: records it as the output cardinality. *)

val span_over :
  ?governor:Governor.t -> t -> string -> 'a list -> ('a list -> 'b list) -> 'b list
(** [span_over t name input f] — the common list-in/list-out operator
    shape. Input and output cardinalities are recorded; neither
    [List.length] runs when the tracer is disabled. *)

val attach : t -> span -> unit
(** Graft a finished span — typically the root of a tree built by
    another tracer on another domain — as a child of the innermost
    open span (or as a top-level span when none is open). The grafted
    tree must be complete; it is not copied. *)

val fused : t -> string -> input:int -> output:int -> unit
(** Record a stage that ran fused into its producer's loop (a filter
    applied as each item is emitted): a finished child span of the
    innermost open span with the stage's input and output
    cardinalities, [elapsed_ns = 0] (its time is inside the
    producer's span) and the attribute [fused=true]. *)

val roots : t -> span list
(** Completed top-level spans, in completion order. *)

val root : t -> span option
(** The single completed top-level span; several are wrapped under a
    synthetic ["trace"] span. *)

val iter_span : (span -> unit) -> span -> unit
(** Depth-first, parent-before-children iteration. *)

val apply_estimates : span -> (string * int) list -> unit
(** [apply_estimates sp pairs] stamps planner estimates onto a
    finished span tree: each [(operator_name, est)] pair sets the
    {!field-span.est} of the first span with that name that does not
    already carry one. EXPLAIN then shows estimated vs actual
    cardinality side by side. *)

val pp_span : Format.formatter -> span -> unit
val span_to_string : span -> string
