type delta_view = {
  delta_db : (Store.Db.t * Access.Ctx.t) option;
  tombstones : bool array;
  dense : int array;
  n_live : int;
  n_tomb : int;
  delta_docs : int;
  rebuild : Mutex.t * Store.Db.t option Atomic.t;
}

type snapshot = {
  db : Store.Db.t;
  ctx : Access.Ctx.t;
  generation : int;
  source : string;
  delta : delta_view option;
  feedback : Ir.Stats.Feedback.t;
}

let of_db ?(generation = 0) ?(source = "<memory>") ?feedback db =
  let pager = Store.Element_store.pager (Store.Db.elements db) in
  match Store.Pager.pin pager with
  | Ok () ->
    Ok
      {
        db;
        ctx = Access.Ctx.of_db db;
        generation;
        source;
        delta = None;
        feedback =
          (match feedback with
          | Some f -> f
          | None -> Ir.Stats.Feedback.create ());
      }
  | Error e ->
    Error
      (Format.asprintf "cannot pin %s: %a" source Store.Pager.pp_read_error e)

let with_delta snapshot d =
  if Store.Delta.is_empty d then { snapshot with delta = None }
  else begin
    let tombstones = Store.Delta.tombstones d in
    let n_base = Array.length tombstones in
    let dense = Array.make (max n_base 1) (-1) in
    let n_live = ref 0 in
    for doc = 0 to n_base - 1 do
      if not tombstones.(doc) then begin
        dense.(doc) <- !n_live;
        incr n_live
      end
    done;
    let delta_db =
      Option.map (fun db -> (db, Access.Ctx.of_db db)) (Store.Delta.db d)
    in
    {
      snapshot with
      delta =
        Some
          {
            delta_db;
            tombstones;
            dense;
            n_live = !n_live;
            n_tomb = Store.Delta.tombstone_count d;
            delta_docs = Store.Delta.doc_count d;
            rebuild = (Mutex.create (), Atomic.make None);
          };
    }
  end

let is_tombstoned dv doc =
  doc >= 0 && doc < Array.length dv.tombstones && dv.tombstones.(doc)

let fault_stats snapshot =
  Store.Pager.fault (Store.Element_store.pager (Store.Db.elements snapshot.db))
  |> Option.map Store.Fault.stats

let load ?verify ?generation path =
  match Store.Db.open_file ?verify path with
  | Ok db -> of_db ?generation ~source:path db
  | Error e -> Error (Store.Db.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Requests *)

type search_method = Termjoin | Enhanced | Genmeet | Comp1 | Comp2 | Auto

let search_method_of_string = function
  | "termjoin" -> Some Termjoin
  | "enhanced" -> Some Enhanced
  | "genmeet" -> Some Genmeet
  | "comp1" -> Some Comp1
  | "comp2" -> Some Comp2
  | "auto" -> Some Auto
  | _ -> None

let search_method_to_string = function
  | Termjoin -> "termjoin"
  | Enhanced -> "enhanced"
  | Genmeet -> "genmeet"
  | Comp1 -> "comp1"
  | Comp2 -> "comp2"
  | Auto -> "auto"

type request =
  | Query of { q : string; mode : [ `Auto | `Engine | `Interp ] }
  | Search of {
      terms : string list;
      method_ : search_method;
      complex : bool;
      anchor : string option;
    }
  | Phrase of { phrase : string; comp3 : bool }
  | Ranked of { terms : string list }

type row = { tag : string; doc : int; start : int; score : float }

type result = {
  rows : row list;
  trees : string list;
  total : int;
  limit : int option;
  cached : bool;
  plan : string option;
  timings : (string * float) list;
  steps_used : int;
  trace : Core.Trace.span option;
      (** the annotated span tree, present iff the request asked for
          tracing *)
}

type error =
  | Parse_error of string
  | Unsupported of string
  | Exhausted of Core.Governor.violation
  | Storage of string
  | Bad_request of string

let error_code = function
  | Parse_error _ -> "parse_error"
  | Unsupported _ -> "unsupported"
  | Exhausted _ -> "exhausted"
  | Storage _ -> "storage"
  | Bad_request _ -> "bad_request"

let error_message = function
  | Parse_error m | Unsupported m | Storage m | Bad_request m -> m
  | Exhausted v -> Core.Governor.violation_to_string v

(* Collapse whitespace runs outside string literals, so two spellings
   of one query share a cache entry without ever merging queries whose
   literals differ. The literal rules must agree with [Query.Lexer]:
   either quote character opens a literal, the same character closes
   it, and there are no escape sequences. The lexer keeps only the
   content, so ["abc"] and ['abc'] tokenize identically — the key
   re-quotes every literal with ["], falling back to ['] exactly when
   the content contains ["] (such a literal has no double-quoted
   spelling, so the fallback cannot collide). An unterminated literal
   is a lex error; its remainder is copied verbatim so two distinct
   erroneous queries never collapse onto one key. *)
let normalize_query q =
  let n = String.length q in
  let buf = Buffer.create n in
  let pending_ws = ref false in
  let sep () =
    if !pending_ws && Buffer.length buf > 0 then Buffer.add_char buf ' ';
    pending_ws := false
  in
  let i = ref 0 in
  while !i < n do
    match q.[!i] with
    | ' ' | '\t' | '\n' | '\r' ->
      pending_ws := true;
      incr i
    | ('"' | '\'') as quote ->
      sep ();
      (match String.index_from_opt q (!i + 1) quote with
      | Some stop ->
        let content = String.sub q (!i + 1) (stop - !i - 1) in
        let canon = if String.contains content '"' then '\'' else '"' in
        Buffer.add_char buf canon;
        Buffer.add_string buf content;
        Buffer.add_char buf canon;
        i := stop + 1
      | None ->
        (* unterminated: copy the rest verbatim, whitespace and all *)
        Buffer.add_substring buf q !i (n - !i);
        i := n)
    | c ->
      sep ();
      Buffer.add_char buf c;
      incr i
  done;
  Buffer.contents buf

let canonical_key = function
  | Query { q; mode } ->
    let m =
      match mode with `Auto -> "auto" | `Engine -> "engine" | `Interp -> "interp"
    in
    Printf.sprintf "query|%s|%s" m (normalize_query q)
  | Search { terms; method_; complex; anchor } ->
    Printf.sprintf "search|%s|%s%s|%s"
      (search_method_to_string method_)
      (if complex then "complex" else "simple")
      (match anchor with None -> "" | Some a -> "|a=" ^ a)
      (String.concat "\x00" terms)
  | Phrase { phrase; comp3 } ->
    Printf.sprintf "phrase|%s|%s"
      (if comp3 then "comp3" else "finder")
      (normalize_query phrase)
  | Ranked { terms } -> Printf.sprintf "ranked|%s" (String.concat "\x00" terms)

type caches = {
  plans : (Query.Compile.plan, string) Stdlib.result Lru.t;
  results : result Lru.t;
}

(* Plan-cache keys fold the snapshot's feedback generation in front of
   the canonical request key: a material cardinality correction (a
   factor-2 move, see {!Ir.Stats.Feedback}) changes the key, so the
   next execution re-costs the plan instead of reusing a stale
   access-method choice. Reloads clear the caches outright. *)
let plan_cache_key snapshot key =
  Printf.sprintf "sg%d|%s" (Ir.Stats.Feedback.generation snapshot.feedback) key

(* ------------------------------------------------------------------ *)
(* Execution *)

let src = Logs.Src.create "tix.service" ~doc:"TIX query service engine"

module Log = (val Logs.src_log src)

let now = Unix.gettimeofday

(* Requests slower than this (seconds) are logged with their span
   tree when one was recorded. Set once at server startup. *)
let slow_query_threshold : float option Atomic.t = Atomic.make None
let set_slow_query_threshold s = Atomic.set slow_query_threshold s

(* Every recorded span also lands in a per-operator latency
   histogram, so EXPLAIN ANALYZE runs feed the service metrics. *)
let observe_spans span =
  Core.Trace.iter_span
    (fun (sp : Core.Trace.span) ->
      Metrics.observe_ns (Metrics.histogram ("span." ^ sp.name)) sp.elapsed_ns)
    span

let log_slow ~key ~dt trace_span =
  match Atomic.get slow_query_threshold with
  | Some threshold when dt >= threshold ->
    Metrics.incr (Metrics.counter "queries.slow");
    let tree =
      match trace_span with
      | Some sp -> "\n" ^ Core.Trace.span_to_string sp
      | None -> ""
    in
    Log.warn (fun m ->
        m "slow query (%.3fs >= %.3fs): %s%s" dt threshold key tree)
  | Some _ | None -> ()

(* Row-level mirror of [Access.Scored_node.compare_score_desc]:
   score descending, ties in (doc, start) order — the order a
   from-scratch rebuild of base ∪ delta − tombstones would emit. *)
let compare_row a b =
  match compare b.score a.score with
  | 0 -> ( match compare a.doc b.doc with 0 -> compare a.start b.start | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* Node-result selection

   Every node-result family — search by any method, anchored search,
   phrase, comp3, ranked and compiled queries — streams its scored
   nodes into one selector per request, segment after segment (the
   base, then the delta). The selector drops nodes of tombstoned base
   documents, remaps ids into the merged dense id space (live base
   documents keep their relative order, delta documents follow),
   counts the survivors as [total], and keeps the [cap] best in a
   bounded {!Core.Top_k} whose tie order is [compare_row]'s. Rows —
   and their name lookups — are built for the survivors only. Scores
   are per-element (no corpus statistics), so the split execution
   selects exactly what one run over a rebuild would. *)

type selector = {
  heap : Access.Scored_node.t Core.Top_k.t;  (** nodes in merged ids *)
  cap : int;  (** rows to return; [max_int] = all *)
  mutable live : int;  (** surviving nodes: the result's [total] *)
}

let row_cap = function Some k when k >= 0 -> k | Some _ | None -> max_int
let ranked_k = function Some k when k > 0 -> k | Some _ | None -> 10

let selector cap =
  {
    heap = Core.Top_k.create ~tie:Access.Scored_node.rank_tie (max 1 cap);
    cap;
    live = 0;
  }

(* [remap] builds the merged-id node; it only runs for a node the
   heap may keep *)
let offer sel (n : Access.Scored_node.t) remap =
  sel.live <- sel.live + 1;
  if sel.cap > 0 && Core.Top_k.admits sel.heap n.score then
    Core.Top_k.add sel.heap ~score:n.score (remap n)

(* The emit functions of the base and the delta segment. *)
let base_sink snapshot sel =
  match snapshot.delta with
  | None -> fun n -> offer sel n Fun.id
  | Some dv ->
    let remap (n : Access.Scored_node.t) = { n with doc = dv.dense.(n.doc) } in
    fun (n : Access.Scored_node.t) ->
      if not (is_tombstoned dv n.doc) then offer sel n remap

let delta_sink dv sel =
  let remap (n : Access.Scored_node.t) = { n with doc = dv.n_live + n.doc } in
  fun n -> offer sel n remap

(* Feed [run]'s output for each segment of the snapshot into [sel]. *)
let select_segments snapshot sel run =
  run snapshot.db snapshot.ctx ~emit:(base_sink snapshot sel);
  match snapshot.delta with
  | Some ({ delta_db = Some (ddb, dctx); _ } as dv) ->
    run ddb dctx ~emit:(delta_sink dv sel)
  | Some { delta_db = None; _ } | None -> ()

(* Row labels: an element's tag name, or — for ranked, whose nodes
   carry their segment-local document id in [tag] — its document's
   name. *)
let tag_label catalog (n : Access.Scored_node.t) =
  if n.tag >= 0 && n.tag < Store.Catalog.tag_count catalog then
    Store.Catalog.tag_name catalog n.tag
  else "?"

let document_label catalog (n : Access.Scored_node.t) =
  if n.tag >= 0 && n.tag < Store.Catalog.document_count catalog then
    Store.Catalog.document_name catalog n.tag
  else "?"

(* The survivors as rows, best first; [name] labels each against the
   catalog of the segment the node came from. *)
let selected_rows snapshot sel name =
  if sel.cap = 0 then []
  else
    List.map
      (fun (_, (n : Access.Scored_node.t)) ->
        let db =
          match snapshot.delta with
          | Some { delta_db = Some (ddb, _); n_live; _ } when n.doc >= n_live ->
            ddb
          | Some _ | None -> snapshot.db
        in
        {
          tag = name (Store.Db.catalog db) n;
          doc = n.doc;
          start = n.start;
          score = n.score;
        })
      (Core.Top_k.to_sorted_list sel.heap)

let op_counter name = Metrics.counter ("op." ^ name)

let timed record name f =
  let t0 = now () in
  let v = f () in
  record name (now () -. t0);
  v

(* Run one segment's access method under the request's shared budget
   [sh], streaming its output into [emit]. With [par > 1],
   [partitioned] fans the method out across [par] domains — chunks
   tick [sh] as they emit — and returns the merged output. Otherwise
   [sequential] streams into its argument and returns how many items
   it emitted, which are charged to [sh]: methods that are not
   internally governed still pay for their output cardinality. *)
let governed sh ~par ~partitioned ~sequential ~emit =
  if par > 1 then List.iter emit (partitioned sh)
  else begin
    let gov = Core.Governor.attach sh in
    Core.Governor.tick_n gov (sequential emit);
    Core.Governor.settle gov
  end

(* A fresh execution's answer; {!exec} adds the stage times and the
   span tree. *)
let answer ?plan ?limit ?(trees = []) ~steps ~total rows =
  {
    rows;
    trees;
    total;
    limit;
    cached = false;
    plan;
    timings = [];
    steps_used = steps;
    trace = None;
  }

(* Parse, compile and — given a snapshot — cost [q] against its
   collection statistics, through the plan cache when there is one,
   under [key] (generation-prefixed by the snapshot, see
   [plan_cache_key]). The outcome is the parse error, or the compile
   result: the plan, or the reason the query is not compilable.
   [record] receives the parse and compile stage times of a miss. *)
let compiled ?caches ?snapshot ?(record = fun _ _ -> ()) ~key q =
  let fresh () =
    match timed record "parse" (fun () -> Query.Parser.parse q) with
    | Error e -> Error (Parse_error (Format.asprintf "%a" Query.Parser.pp_error e))
    | Ok ast ->
      Ok
        (timed record "compile" (fun () ->
             let plan = Query.Compile.compile ast in
             match snapshot with
             | None -> plan
             | Some s ->
               Result.map
                 (Query.Compile.plan_with_stats ~feedback:s.feedback ~key s.db)
                 plan))
  in
  match caches with
  | None -> fresh ()
  | Some c -> (
    let cache_key =
      match snapshot with Some s -> plan_cache_key s key | None -> key
    in
    match Lru.find c.plans cache_key with
    | Some outcome -> Ok outcome
    | None ->
      let outcome = fresh () in
      Result.iter (Lru.add c.plans cache_key) outcome;
      outcome)

(* The database the interpreter reads. Over a delta it is base ∪
   delta − tombstones as one database, built by [Store.Db.compact]
   (the checkpoint's merge) so that collection-statistic scorers see
   the whole collection. The first interpreted query of a snapshot
   builds it under the snapshot's own lock: concurrent domains build
   it once, and a build never waits on another snapshot's. Each
   document keeps its tree iff its segment did, and a delta keeps all
   of its documents'. So the rebuild is skipped only when it would
   keep no tree — a tombstone-only delta over a base that keeps none
   — and the query reads the base instead: any document it reads
   fails there as on the rebuild, though the message may name a
   deleted document. *)
let interp_db snapshot =
  match snapshot.delta with
  | Some ({ rebuild = lock, cell; _ } as dv)
    when dv.delta_docs > 0 || Store.Db.retains_trees snapshot.db -> (
    match Atomic.get cell with
    | Some db -> db
    | None ->
      Mutex.protect lock (fun () ->
          match Atomic.get cell with
          | Some db -> db
          | None ->
            let db =
              Store.Db.compact ~base:snapshot.db
                ~delta:(Option.map fst dv.delta_db)
                ~tombstones:dv.tombstones
            in
            Atomic.set cell (Some db);
            db))
  | Some _ | None -> snapshot.db

let exec_query ~caches ~limits ~tracer ~record ~k snapshot ~q ~mode =
  let key = canonical_key (Query { q; mode }) in
  let stage name f = timed record name f in
  match compiled ?caches ~snapshot ~record ~key q with
  | Error e -> Error e
  | Ok compiled -> begin
    (* a fresh evaluator per query: its tree cache and governor slot
       are private, so the interpreter is domain-safe too. The
       request's deadline runs from before the rebuild, so a build
       that overruns it is the request's breach. Budget and storage
       failures raise to {!exec}'s handlers. *)
    let run_interp () =
      Metrics.incr (op_counter "interp");
      match Query.Parser.parse q with
      | Error e ->
        Error (Parse_error (Format.asprintf "%a" Query.Parser.pp_error e))
      | Ok ast ->
        let trees, steps =
          stage "execute" (fun () ->
              let governor = Core.Governor.start limits in
              let db = interp_db snapshot in
              Core.Governor.check_deadline governor;
              let evaluator = Query.Eval.create ~trace:tracer db in
              let results = Query.Eval.run ~governor evaluator ast in
              ( List.map (fun r -> Xmlkit.Printer.to_string ~indent:2 r) results,
                Core.Governor.steps governor ))
        in
        Ok
          (answer
             ~trees:(List.filteri (fun i _ -> i < row_cap k) trees)
             ~steps ~total:(List.length trees) [])
    in
    (* After a costed plan ran: stamp its row estimate onto the span
       tree (EXPLAIN's est-vs-actual column) and feed the observed
       cardinality back into the snapshot's correction table so the
       next costing of this key is better calibrated. *)
    let note_plan_outcome (plan : Query.Compile.plan) n_out =
      match plan.Query.Compile.estimate with
      | None -> ()
      | Some d ->
        (* a result truncated by [stop after] is a lower bound on the
           operator's cardinality, not a measurement of it: only
           unsaturated runs feed the correction table *)
        let saturated =
          match plan.Query.Compile.limit with
          | Some l -> n_out >= l
          | None -> false
        in
        if not saturated then
          Ir.Stats.Feedback.observe snapshot.feedback ~key
            ~est:(float_of_int d.Query.Planner.est_rows)
            ~actual:(float_of_int n_out);
        (match Core.Trace.root tracer with
        | Some sp ->
          Core.Trace.apply_estimates sp
            [
              ( Access.Pattern_exec.access_operator plan.Query.Compile.access,
                d.Query.Planner.est_rows );
              ("CompiledQuery", d.Query.Planner.est_rows);
            ]
        | None -> ())
    in
    (* Each segment's plan output streams into one selector; the
       plan's [stop after] and the request's [k] bound it together,
       after tombstoned documents are dropped. *)
    let run_plan (plan : Query.Compile.plan) =
      let gov = Core.Governor.start limits in
      let limit =
        match plan.limit with Some l -> max 0 l | None -> max_int
      in
      let sel = selector (min limit (row_cap k)) in
      let rows =
        stage "execute" (fun () ->
            Query.Compile.query_span ~trace:tracer ~governor:gov plan
            @@ fun () ->
            select_segments snapshot sel (fun db _ ~emit ->
                ignore
                  (Query.Compile.run ~trace:tracer ~governor:gov db plan ~emit
                    : int));
            (sel.live, selected_rows snapshot sel tag_label))
      in
      let total = min limit sel.live in
      note_plan_outcome plan total;
      Ok
        (answer ~plan:(Query.Compile.explain plan) ?limit:plan.limit
           ~steps:(Core.Governor.steps gov) ~total rows)
    in
    match compiled, mode with
    | Ok plan, (`Auto | `Engine) ->
      Metrics.incr (op_counter "engine_plan");
      run_plan plan
    | Error reason, `Engine ->
      Error (Unsupported (Printf.sprintf "not compilable: %s" reason))
    | Error _, (`Auto | `Interp) | Ok _, `Interp -> run_interp ()
  end

(* EXPLAIN without ANALYZE: parse and compile, print the plan the
   engine path would run, without touching the data pages. With
   [snapshot] the plan is costed against the collection statistics
   (and cached under the generation-prefixed key exec uses); without
   one, only the static rule is shown. *)
let explain ?caches ?snapshot q =
  let key = canonical_key (Query { q; mode = `Engine }) in
  match compiled ?caches ?snapshot ~key q with
  | Error e -> Error e
  | Ok (Ok plan) -> Ok (Query.Compile.explain plan)
  | Ok (Error reason) ->
    Error
      (Unsupported
         (Printf.sprintf
            "not compilable (would run on the interpreter): %s" reason))

(* The [op.*] counter of a search that runs [access] *)
let search_counter = function
  | Access.Pattern_exec.Term_join Access.Term_join.Plain -> "termjoin"
  | Access.Pattern_exec.Term_join Access.Term_join.Enhanced -> "enhanced"
  | Access.Pattern_exec.Gen_meet _ -> "genmeet"
  | Access.Pattern_exec.Comp1 -> "comp1"
  | Access.Pattern_exec.Comp2 -> "comp2"

let exec ?caches ?(limits = Core.Governor.unlimited) ?k ?theta ?(trace = false)
    ?parallelism snapshot request =
  Metrics.incr (Metrics.counter "queries.total");
  (* Parallel execution never changes results, so it shares the
     sequential cache key; [parallelism <= 1] (or an ineligible
     request shape) falls through to the sequential paths. *)
  let par = match parallelism with Some p when p > 1 -> p | _ -> 1 in
  let t0 = now () in
  (* One tracer per traced request; the shared disabled tracer keeps
     the untraced path allocation-free. *)
  let tracer = if trace then Core.Trace.make () else Core.Trace.disabled in
  let result_key =
    (* a θ hint legitimately prunes ranked answers below the relayed
       cutoff, so hinted and unhinted runs must never share a cache
       entry; nor may runs under different step or result caps, or a
       hit would answer a request its own limits reject. A hit costs
       no time, so the timeout stays out of the key. *)
    let int_opt = function None -> "*" | Some n -> string_of_int n in
    Printf.sprintf "g%d|k%s|t%s|s%s|r%s|%s" snapshot.generation (int_opt k)
      (match theta with None -> "*" | Some t -> Printf.sprintf "%h" t)
      (int_opt limits.Core.Governor.max_steps)
      (int_opt limits.max_results) (canonical_key request)
  in
  let cached_result =
    (* a traced request must actually execute: bypass the result
       cache in both directions *)
    if trace then None
    else Option.bind caches (fun c -> Lru.find c.results result_key)
  in
  match cached_result with
  | Some r ->
    Metrics.incr (Metrics.counter "queries.result_cache_hits");
    (* the plan text and the row limit ride along in the cache, so
       responses are cache-transparent — distributed coordinators
       read the limit off shard responses and must see it on hits
       too *)
    Ok { r with cached = true; timings = []; steps_used = 0; trace = None }
  | None -> begin
    (* stage latencies, in order, each also into its [stage.*]
       histogram *)
    let timings = ref [] in
    let record name dt =
      timings := (name, dt) :: !timings;
      Metrics.observe_s (Metrics.histogram ("stage." ^ name)) dt
    in
    (* [r]'s rows and trees arrive already cut to [k]; its [total] is
       the count before the cut *)
    let finish r =
      (match caches with
      | Some c when not trace -> Lru.add c.results result_key r
      | Some _ | None -> ());
      let dt = now () -. t0 in
      Metrics.observe_s (Metrics.histogram "query.total") dt;
      let trace_span = Core.Trace.root tracer in
      Option.iter observe_spans trace_span;
      log_slow ~key:result_key ~dt trace_span;
      {
        r with
        timings = List.rev (("total", dt) :: !timings);
        trace = trace_span;
      }
    in
    (* Node-result families (search, phrase, ranked): every segment's
       access method streams into one selector under one budget. The
       result cap is checked once, against the count a rebuild would
       emit: the survivors, at most [limit]. *)
    let select_nodes ?(limit = max_int) ~cap ~name run =
      let sel = selector cap in
      let sh = Core.Governor.make_shared limits in
      select_segments snapshot sel (run sh);
      let total = min limit sel.live in
      Core.Governor.shared_check_results sh total;
      Core.Governor.shared_check_deadline sh;
      (selected_rows snapshot sel name, total, Core.Governor.shared_steps sh)
    in
    match
      match request with
      | Query { q; mode } ->
        Result.map finish
          (exec_query ~caches ~limits ~tracer ~record ~k snapshot ~q ~mode)
      | Search { terms; method_; complex; anchor } ->
        if terms = [] || List.exists (fun t -> String.trim t = "") terms then
          Error (Bad_request "search needs at least one non-empty term")
        else begin
          let mode =
            if complex then Access.Counter_scoring.Complex
            else Access.Counter_scoring.Simple
          in
          (* [Auto] resolves through the planner: the cheapest method
             by cost over the collection statistics, and a degree no
             larger than requested — degraded when the estimated
             per-partition occupancy would not amortize fork/join.
             An anchor resolves to its base-catalog tag id so the
             scoped-GenMeet candidate is priced too. *)
          let decision =
            match method_ with
            | Auto ->
              Metrics.incr (op_counter "auto");
              let anchor_tag =
                Option.bind anchor
                  (Store.Catalog.tag_id (Store.Db.catalog snapshot.db))
              in
              Some
                (Query.Planner.choose ~feedback:snapshot.feedback
                   ~key:(canonical_key request) ?anchor_tag ~parallelism:par
                   ~stats:(Store.Db.collection_stats snapshot.db)
                   ~index:(Store.Db.index snapshot.db) ~terms ())
            | _ -> None
          in
          (* a search's GenMeet seeks through the postings whichever
             GenMeet variant the planner priced *)
          let access, par =
            match decision with
            | Some { access = Access.Pattern_exec.Gen_meet _; parallelism; _ }
              ->
              (Access.Pattern_exec.Gen_meet { use_skips = true }, parallelism)
            | Some d -> (d.access, d.parallelism)
            | None ->
              ( (match method_ with
                | Termjoin ->
                  Access.Pattern_exec.Term_join Access.Term_join.Plain
                | Enhanced ->
                  Access.Pattern_exec.Term_join Access.Term_join.Enhanced
                | Genmeet -> Access.Pattern_exec.Gen_meet { use_skips = true }
                | Comp1 -> Access.Pattern_exec.Comp1
                | Comp2 -> Access.Pattern_exec.Comp2
                | Auto -> assert false (* resolved above *)),
                par )
          in
          Metrics.incr (op_counter (search_counter access));
          (* anchored searches and the composite baselines, which
             materialize candidate sets, stay sequential *)
          let par =
            match anchor, access with
            | None, (Term_join _ | Gen_meet _) -> par
            | Some _, _ | None, (Comp1 | Comp2) -> 1
          in
          if par > 1 then Metrics.incr (Metrics.counter "queries.parallel");
          (* Anchored search: the anchors are the tag's tag-index
             array; the method (GenMeet scoped to the disjoint anchor
             subtrees) streams only the scored nodes that are an
             anchor or lie inside one (a binary search each). Each
             context resolves the tag against its own catalog — a tag
             only present in the delta still anchors there. *)
          let sequential ctx emit =
            match anchor with
            | None ->
              Access.Pattern_exec.score ~trace:tracer ~mode access ctx ~terms
                ~emit ()
            | Some tag_name -> (
              match Store.Catalog.tag_id ctx.Access.Ctx.catalog tag_name with
              | None -> 0
              | Some _ ->
                let pat =
                  Core.Pattern.make
                    (Core.Pattern.pnode ~pred:(Core.Pattern.Tag tag_name) 0 [])
                    []
                in
                Access.Pattern_exec.run ~trace:tracer ~mode ~access ctx pat
                  ~struct_var:0 ~terms ~emit ())
          in
          let rows, total, steps =
            timed record "execute" (fun () ->
                select_nodes ~cap:(row_cap k) ~name:tag_label
                  (fun sh _ ctx ~emit ->
                    governed sh ~par ~emit ~sequential:(sequential ctx)
                      ~partitioned:(fun shared ->
                        Exec.Par.score ~trace:tracer ~shared ~mode
                          ~parallelism:par access ctx ~terms)))
          in
          Option.iter
            (fun (d : Query.Planner.decision) ->
              Ir.Stats.Feedback.observe snapshot.feedback
                ~key:(canonical_key request)
                ~est:(float_of_int d.est_rows)
                ~actual:(float_of_int total);
              Option.iter
                (fun sp ->
                  Core.Trace.apply_estimates sp
                    [
                      (Access.Pattern_exec.access_operator d.access, d.est_rows);
                    ])
                (Core.Trace.root tracer))
            decision;
          let plan =
            Option.map
              (fun d -> "planner: " ^ Query.Planner.to_string d)
              decision
          in
          Ok (finish (answer ?plan ~steps ~total rows))
        end
      | Phrase { phrase; comp3 } -> begin
        match Ir.Phrase.parse phrase with
        | [] -> Error (Bad_request "empty phrase")
        | words ->
          Metrics.incr (op_counter (if comp3 then "comp3" else "phrase_finder"));
          (* comp3 has no range-restricted form *)
          let par = if comp3 then 1 else par in
          if par > 1 then Metrics.incr (Metrics.counter "queries.parallel");
          let rows, total, steps =
            timed record "execute" (fun () ->
                select_nodes ~cap:(row_cap k) ~name:tag_label
                  (fun sh _ ctx ~emit ->
                    governed sh ~par ~emit
                      ~partitioned:(fun shared ->
                        Exec.Par.phrase ~trace:tracer ~shared ~parallelism:par
                          ctx ~phrase:words)
                      ~sequential:(fun emit ->
                        if comp3 then
                          Access.Composite.comp3 ~trace:tracer ctx ~phrase:words
                            ~emit ()
                        else
                          Access.Phrase_finder.run ~trace:tracer ctx
                            ~phrase:words ~emit ())))
          in
          Ok (finish (answer ~steps ~total rows))
      end
      | Ranked { terms } ->
        if terms = [] || List.exists (fun t -> String.trim t = "") terms then
          Error (Bad_request "ranked needs at least one non-empty term")
        else begin
          Metrics.incr (op_counter "ranked");
          let kk = ranked_k k in
          (* Route through the planner like search does: the access
             choice itself does not apply (ranked scans doc-level
             postings), but the degree degrades when the estimated
             per-partition occupancy would not amortize fork/join,
             and the learned cardinality correction warms across
             executions of the same term set. *)
          let decision =
            Query.Planner.choose ~feedback:snapshot.feedback
              ~key:(canonical_key request) ~parallelism:par
              ~stats:(Store.Db.collection_stats snapshot.db)
              ~index:(Store.Db.index snapshot.db) ~terms ()
          in
          let par = decision.Query.Planner.parallelism in
          if par > 1 then Metrics.incr (Metrics.counter "queries.parallel");
          (* Each segment's top-k documents stream into the selector
             as nodes carrying their segment-local id in [tag]. The
             base run is widened by its tombstone count: every live
             document of the merged top-[kk] is then among the base
             candidates that survive. *)
          let rows, total, steps =
            timed record "execute" (fun () ->
                select_nodes ~limit:kk ~cap:(min kk (row_cap k))
                  ~name:document_label
                  (fun sh db ctx ~emit ->
                    let k =
                      match snapshot.delta with
                      | Some dv when db == snapshot.db -> kk + dv.n_tomb
                      | Some _ | None -> kk
                    in
                    let emit (doc, score) =
                      emit
                        {
                          Access.Scored_node.doc;
                          start = -1;
                          end_ = -1;
                          level = 0;
                          tag = doc;
                          score;
                        }
                    in
                    governed sh ~par ~emit
                      ~partitioned:(fun shared ->
                        Exec.Par.top_k_docs ~trace:tracer ~shared ?theta
                          ~parallelism:par ctx ~terms ~k)
                      ~sequential:(fun emit ->
                        (* a θ hint seeds the same shared threshold the
                           parallel chunks use; pruning against it is
                           exact under the monotone-θ invariant
                           (Core.Merge) *)
                        let shared_threshold =
                          Option.map
                            (fun seed -> Core.Merge.Theta.make ~seed ())
                            theta
                        in
                        let docs =
                          Access.Ranked.top_k_docs ~trace:tracer
                            ?shared_threshold ctx ~terms ~k
                        in
                        List.iter emit docs;
                        List.length docs)))
          in
          (* a full top-K is a lower bound on the operator's true
             cardinality, not a measurement: only unsaturated runs
             feed the correction table *)
          if total < kk then
            Ir.Stats.Feedback.observe snapshot.feedback
              ~key:(canonical_key request)
              ~est:(float_of_int decision.Query.Planner.est_rows)
              ~actual:(float_of_int total);
          Ok
            (finish
               (answer
                  ~plan:("planner: " ^ Query.Planner.to_string decision)
                  ~steps ~total rows))
        end
    with
    | outcome -> outcome
    | exception Core.Governor.Resource_exhausted v ->
      Metrics.incr (Metrics.counter "queries.exhausted");
      Error (Exhausted v)
    | exception Store.Pager.Read_error e ->
      Metrics.incr (Metrics.counter "queries.storage_errors");
      Error (Storage (Format.asprintf "%a" Store.Pager.pp_read_error e))
    | exception Query.Eval.Error msg -> Error (Unsupported msg)
  end
