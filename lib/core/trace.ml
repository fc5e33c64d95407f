type span = {
  mutable name : string;
  mutable input : int;
  mutable output : int;
  mutable est : int;
  mutable gov_steps : int;
  mutable elapsed_ns : int;
  mutable attrs : (string * string) list;
  mutable children : span list;
}

(* A frame remembers what was sampled at [enter] so [leave] can
   compute deltas without the span itself growing fields. *)
type frame = { sp : span; started_ns : int; steps_at_enter : int }

type t = {
  on : bool;
  mutable stack : frame list;
  mutable roots : span list;  (* reverse completion order *)
}

(* The shared disabled tracer: every hook degrades to one boolean
   load, no allocation, no clock sample. *)
let disabled = { on = false; stack = []; roots = [] }
let make () = { on = true; stack = []; roots = [] }
let enabled t = t.on

let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

let fresh_span name =
  {
    name;
    input = -1;
    output = -1;
    est = -1;
    gov_steps = -1;
    elapsed_ns = 0;
    attrs = [];
    children = [];
  }

let enter ?(input = -1) ?governor t name =
  if t.on then begin
    let sp = fresh_span name in
    sp.input <- input;
    let steps_at_enter =
      match governor with Some g -> Governor.steps g | None -> -1
    in
    t.stack <- { sp; started_ns = now_ns (); steps_at_enter } :: t.stack
  end

let annotate t key value =
  if t.on then begin
    match t.stack with
    | { sp; _ } :: _ -> sp.attrs <- (key, value) :: sp.attrs
    | [] -> ()
  end

let set_input t n =
  if t.on then
    match t.stack with { sp; _ } :: _ -> sp.input <- n | [] -> ()

let leave ?(output = -1) ?governor t =
  if t.on then begin
    match t.stack with
    | [] -> ()
    | { sp; started_ns; steps_at_enter } :: rest ->
      sp.elapsed_ns <- max 0 (now_ns () - started_ns);
      if output >= 0 then sp.output <- output;
      (match governor with
      | Some g when steps_at_enter >= 0 ->
        sp.gov_steps <- Governor.steps g - steps_at_enter
      | Some _ | None -> ());
      sp.children <- List.rev sp.children;
      sp.attrs <- List.rev sp.attrs;
      t.stack <- rest;
      (match rest with
      | { sp = parent; _ } :: _ -> parent.children <- sp :: parent.children
      | [] -> t.roots <- sp :: t.roots)
  end

(* Close any frames a raising operator left open, so an exception
   unwinding through traced code still yields a well-formed tree. *)
let unwind t =
  if t.on then while t.stack <> [] do leave t done

let span ?input ?governor t name f =
  if not t.on then f ()
  else begin
    enter ?input ?governor t name;
    match f () with
    | v ->
      leave ?governor t;
      v
    | exception e ->
      leave ?governor t;
      raise e
  end

let span_list ?input ?governor t name f =
  if not t.on then f ()
  else begin
    enter ?input ?governor t name;
    match f () with
    | l ->
      leave ~output:(List.length l) ?governor t;
      l
    | exception e ->
      leave ?governor t;
      raise e
  end

(* For the emitter-shaped access methods, whose return value is the
   emitted cardinality. *)
let span_count ?input ?governor t name f =
  if not t.on then f ()
  else begin
    enter ?input ?governor t name;
    match f () with
    | n ->
      leave ~output:n ?governor t;
      n
    | exception e ->
      leave ?governor t;
      raise e
  end

(* The common operator shape: a list in, a list out. Cardinalities
   are only computed when the tracer is live. *)
let span_over ?governor t name input f =
  if not t.on then f input
  else begin
    enter ~input:(List.length input) ?governor t name;
    match f input with
    | l ->
      leave ~output:(List.length l) ?governor t;
      l
    | exception e ->
      leave ?governor t;
      raise e
  end

(* Graft a finished span (built by another tracer, e.g. one partition
   of a parallel query) under the innermost open span — or as a root
   when nothing is open. Children lists are kept reversed until
   [leave], so push like a completed child would be pushed. *)
let attach t sp =
  if t.on then begin
    match t.stack with
    | { sp = parent; _ } :: _ -> parent.children <- sp :: parent.children
    | [] -> t.roots <- sp :: t.roots
  end

(* A stage fused into its producer's loop has no time of its own:
   record it as a finished span carrying only its cardinalities. *)
let fused t name ~input ~output =
  if t.on then begin
    let sp = fresh_span name in
    sp.input <- input;
    sp.output <- output;
    sp.attrs <- [ ("fused", "true") ];
    attach t sp
  end

let roots t = List.rev t.roots

let root t =
  match List.rev t.roots with
  | [ sp ] -> Some sp
  | [] -> None
  | first :: _ as all ->
    (* several completed top-level spans: wrap them so consumers
       always see one tree *)
    let wrapper = fresh_span "trace" in
    wrapper.children <- all;
    wrapper.elapsed_ns <-
      List.fold_left (fun acc sp -> acc + sp.elapsed_ns) 0 all;
    wrapper.input <- first.input;
    Some wrapper

(* Depth-first iteration over a finished span tree (parent first). *)
let rec iter_span f sp =
  f sp;
  List.iter (iter_span f) sp.children

(* Stamp planner estimates onto a finished span tree: each
   [(name, est)] pair lands on the first span with that name that
   does not already carry one, so repeated operator names (e.g. the
   per-partition spans of a parallel plan) take pairs in order. *)
let apply_estimates sp pairs =
  let remaining = ref pairs in
  iter_span
    (fun s ->
      if s.est < 0 then
        match List.assoc_opt s.name !remaining with
        | Some e ->
          s.est <- e;
          remaining := List.remove_assoc s.name !remaining
        | None -> ())
    sp

let rec pp_span_indent indent ppf sp =
  let card which v =
    if v < 0 then "" else Printf.sprintf " %s=%d" which v
  in
  Format.fprintf ppf "%s%s%s%s%s%s  %.3f ms" indent sp.name
    (card "in" sp.input) (card "out" sp.output)
    (card "est" sp.est)
    (card "steps" sp.gov_steps)
    (float_of_int sp.elapsed_ns /. 1e6);
  List.iter
    (fun (k, v) -> Format.fprintf ppf " %s=%s" k v)
    sp.attrs;
  List.iter
    (fun child ->
      Format.pp_print_cut ppf ();
      pp_span_indent (indent ^ "  ") ppf child)
    sp.children

let pp_span ppf sp =
  Format.fprintf ppf "@[<v>%a@]" (pp_span_indent "") sp

let span_to_string sp = Format.asprintf "%a" pp_span sp
