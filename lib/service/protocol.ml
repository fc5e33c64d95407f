type request =
  | Exec of {
      req : Engine.request;
      k : int option;
      limits : Core.Governor.limits;
      trace : bool;
      parallelism : int option;
      theta : float option;
    }
  | Explain of { q : string }
  | Prepare of { q : string }
  | Execute of {
      id : int;
      k : int option;
      limits : Core.Governor.limits;
      trace : bool;
      parallelism : int option;
    }
  | Insert of { name : string; xml : string }
  | Remove of { name : string }
  | UpdateDoc of { name : string; xml : string }
  | Checkpoint of { wait : bool }
  | Stats
  | Health

(* ------------------------------------------------------------------ *)
(* Request decoding *)

let field_string j name =
  match Option.map Json.to_string_opt (Json.member name j) with
  | Some (Some s) -> Ok s
  | Some None -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let field_string_list j name =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> begin
    match Json.to_list_opt v with
    | None -> Error (Printf.sprintf "field %S must be an array of strings" name)
    | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> begin
          match Json.to_string_opt x with
          | Some s -> go (s :: acc) rest
          | None ->
            Error (Printf.sprintf "field %S must be an array of strings" name)
        end
      in
      go [] items
  end

let opt_string j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> begin
    match Json.to_string_opt v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "field %S must be a string" name)
  end

let opt_int j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> begin
    match Json.to_int_opt v with
    | Some n -> Ok (Some n)
    | None -> Error (Printf.sprintf "field %S must be an integer" name)
  end

let opt_float j name =
  match Json.member name j with
  | None -> Ok None
  | Some v -> begin
    match Json.to_float_opt v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "field %S must be a number" name)
  end

let opt_bool ~default j name =
  match Json.member name j with
  | None -> Ok default
  | Some v -> begin
    match Json.to_bool_opt v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "field %S must be a boolean" name)
  end

let ( let* ) = Result.bind

let limits_of j =
  let* timeout_s = opt_float j "timeout" in
  let* max_steps = opt_int j "max_steps" in
  let* max_results = opt_int j "max_results" in
  Ok { Core.Governor.timeout_s; max_steps; max_results }

let parse_request line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok j -> begin
    let* op = field_string j "op" in
    let* k = opt_int j "k" in
    let* limits = limits_of j in
    let* trace = opt_bool ~default:false j "trace" in
    let* parallelism = opt_int j "parallelism" in
    let* theta = opt_float j "theta" in
    match op with
    | "query" ->
      let* q = field_string j "q" in
      let* mode =
        match Option.map Json.to_string_opt (Json.member "mode" j) with
        | None -> Ok `Auto
        | Some (Some "auto") -> Ok `Auto
        | Some (Some "engine") -> Ok `Engine
        | Some (Some "interp") -> Ok `Interp
        | Some _ -> Error "field \"mode\" must be auto, engine or interp"
      in
      Ok (Exec { req = Engine.Query { q; mode }; k; limits; trace; parallelism; theta })
    | "explain" ->
      let* q = field_string j "q" in
      Ok (Explain { q })
    | "search" ->
      let* terms = field_string_list j "terms" in
      let* complex = opt_bool ~default:false j "complex" in
      let* anchor = opt_string j "anchor" in
      let* method_ =
        match Option.map Json.to_string_opt (Json.member "method" j) with
        | None -> Ok Engine.Termjoin
        | Some (Some s) -> begin
          match Engine.search_method_of_string s with
          | Some m -> Ok m
          | None -> Error (Printf.sprintf "unknown search method %S" s)
        end
        | Some None -> Error "field \"method\" must be a string"
      in
      Ok
        (Exec
           { req = Engine.Search { terms; method_; complex; anchor }; k;
             limits; trace; parallelism; theta })
    | "phrase" ->
      let* phrase = field_string j "phrase" in
      let* comp3 = opt_bool ~default:false j "comp3" in
      Ok
        (Exec
           { req = Engine.Phrase { phrase; comp3 }; k; limits; trace;
             parallelism; theta })
    | "ranked" ->
      let* terms = field_string_list j "terms" in
      Ok (Exec { req = Engine.Ranked { terms }; k; limits; trace; parallelism; theta })
    | "prepare" ->
      let* q = field_string j "q" in
      Ok (Prepare { q })
    | "execute" -> begin
      let* id = opt_int j "id" in
      match id with
      | Some id -> Ok (Execute { id; k; limits; trace; parallelism })
      | None -> Error "missing field \"id\""
    end
    | "insert" ->
      let* name = field_string j "name" in
      let* xml = field_string j "xml" in
      Ok (Insert { name; xml })
    | "delete" ->
      let* name = field_string j "name" in
      Ok (Remove { name })
    | "update" ->
      let* name = field_string j "name" in
      let* xml = field_string j "xml" in
      Ok (UpdateDoc { name; xml })
    | "checkpoint" ->
      let* wait = opt_bool ~default:true j "wait" in
      Ok (Checkpoint { wait })
    | "stats" -> Ok Stats
    | "health" -> Ok Health
    | other -> Error (Printf.sprintf "unknown op %S" other)
  end

(* ------------------------------------------------------------------ *)
(* Request encoding (client side) *)

let limits_fields (l : Core.Governor.limits) =
  List.concat
    [
      (match l.timeout_s with Some s -> [ ("timeout", Json.Float s) ] | None -> []);
      (match l.max_steps with Some n -> [ ("max_steps", Json.Int n) ] | None -> []);
      (match l.max_results with
      | Some n -> [ ("max_results", Json.Int n) ]
      | None -> []);
    ]

let k_field = function Some k -> [ ("k", Json.Int k) ] | None -> []
let trace_field = function true -> [ ("trace", Json.Bool true) ] | false -> []

let parallelism_field = function
  | Some n -> [ ("parallelism", Json.Int n) ]
  | None -> []

let theta_field = function Some t -> [ ("theta", Json.Float t) ] | None -> []

let request_to_json = function
  | Exec { req; k; limits; trace; parallelism; theta } -> begin
    let base =
      match req with
      | Engine.Query { q; mode } ->
        let mode =
          match mode with
          | `Auto -> "auto"
          | `Engine -> "engine"
          | `Interp -> "interp"
        in
        [ ("op", Json.String "query"); ("q", Json.String q);
          ("mode", Json.String mode) ]
      | Engine.Search { terms; method_; complex; anchor } ->
        [
          ("op", Json.String "search");
          ("terms", Json.List (List.map (fun t -> Json.String t) terms));
          ("method", Json.String (Engine.search_method_to_string method_));
          ("complex", Json.Bool complex);
        ]
        @ (match anchor with
          | Some a -> [ ("anchor", Json.String a) ]
          | None -> [])
      | Engine.Phrase { phrase; comp3 } ->
        [ ("op", Json.String "phrase"); ("phrase", Json.String phrase);
          ("comp3", Json.Bool comp3) ]
      | Engine.Ranked { terms } ->
        [
          ("op", Json.String "ranked");
          ("terms", Json.List (List.map (fun t -> Json.String t) terms));
        ]
    in
    Json.Obj
      (base @ k_field k @ limits_fields limits @ trace_field trace
      @ parallelism_field parallelism @ theta_field theta)
  end
  | Explain { q } ->
    Json.Obj [ ("op", Json.String "explain"); ("q", Json.String q) ]
  | Prepare { q } -> Json.Obj [ ("op", Json.String "prepare"); ("q", Json.String q) ]
  | Execute { id; k; limits; trace; parallelism } ->
    Json.Obj
      ([ ("op", Json.String "execute"); ("id", Json.Int id) ]
      @ k_field k @ limits_fields limits @ trace_field trace
      @ parallelism_field parallelism)
  | Insert { name; xml } ->
    Json.Obj
      [ ("op", Json.String "insert"); ("name", Json.String name);
        ("xml", Json.String xml) ]
  | Remove { name } ->
    Json.Obj [ ("op", Json.String "delete"); ("name", Json.String name) ]
  | UpdateDoc { name; xml } ->
    Json.Obj
      [ ("op", Json.String "update"); ("name", Json.String name);
        ("xml", Json.String xml) ]
  | Checkpoint { wait } ->
    Json.Obj
      (("op", Json.String "checkpoint")
      :: (if wait then [] else [ ("wait", Json.Bool false) ]))
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Health -> Json.Obj [ ("op", Json.String "health") ]

(* ------------------------------------------------------------------ *)
(* Response encoding *)

let row_to_json (r : Engine.row) =
  Json.Obj
    [
      ("tag", Json.String r.tag);
      ("doc", Json.Int r.doc);
      ("start", Json.Int r.start);
      ("score", Json.Float r.score);
    ]

let rows_to_json rows = Json.List (List.map row_to_json rows)

let rec span_to_json (sp : Core.Trace.span) =
  let int_field name v = if v >= 0 then [ (name, Json.Int v) ] else [] in
  Json.Obj
    (List.concat
       [
         [ ("op", Json.String sp.name) ];
         int_field "input" sp.input;
         int_field "output" sp.output;
         int_field "est" sp.est;
         int_field "steps" sp.gov_steps;
         [ ("elapsed_ns", Json.Int sp.elapsed_ns) ];
         (match sp.attrs with
         | [] -> []
         | attrs ->
           [
             ( "attrs",
               Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs) );
           ]);
         (match sp.children with
         | [] -> []
         | cs -> [ ("children", Json.List (List.map span_to_json cs)) ]);
       ])

let result_to_json ?(include_timings = true) ?(extra = []) (r : Engine.result) =
  let base =
    [
      ("ok", Json.Bool true);
      ("total", Json.Int r.total);
    ]
    @ (match r.limit with Some l -> [ ("limit", Json.Int l) ] | None -> [])
    @ [
      ("cached", Json.Bool r.cached);
      ("steps_used", Json.Int r.steps_used);
      ("results", rows_to_json r.rows);
    ]
    @ extra
  in
  let trees =
    if r.trees = [] then []
    else [ ("trees", Json.List (List.map (fun t -> Json.String t) r.trees)) ]
  in
  let plan = match r.plan with Some p -> [ ("plan", Json.String p) ] | None -> [] in
  let timings =
    if include_timings && r.timings <> [] then
      [
        ( "timings",
          Json.Obj (List.map (fun (s, dt) -> (s, Json.Float dt)) r.timings) );
      ]
    else []
  in
  let trace =
    match r.trace with
    | Some sp -> [ ("trace", span_to_json sp) ]
    | None -> []
  in
  Json.Obj (base @ trees @ plan @ timings @ trace)

(* ------------------------------------------------------------------ *)
(* Response decoding: the inverse of [result_to_json] *)

let missing name = Error (Printf.sprintf "missing field %S" name)
let ill_typed name = Error (Printf.sprintf "field %S is ill-typed" name)

let required name = function
  | Ok (Some v) -> Ok v
  | Ok None -> missing name
  | Error e -> Error e

let field_int j name = required name (opt_int j name)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* v = f x in
      go (v :: acc) rest
  in
  go [] l

(* an array field decoded item by item; [absent] answers for a
   missing field that is optional *)
let array ?absent j name f =
  match (Json.member name j, absent) with
  | Some (Json.List items), _ -> map_result f items
  | Some _, _ -> ill_typed name
  | None, Some v -> Ok v
  | None, None -> missing name

(* an optional object field of [conv]-typed values, [[]] when absent *)
let opt_fields j name conv =
  match Json.member name j with
  | None -> Ok []
  | Some (Json.Obj fields) ->
    map_result
      (fun (k, v) ->
        match conv v with Some x -> Ok (k, x) | None -> ill_typed name)
      fields
  | Some _ -> ill_typed name

let row_of_json j =
  let* tag = field_string j "tag" in
  let* doc = field_int j "doc" in
  let* start = field_int j "start" in
  let* score = required "score" (opt_float j "score") in
  Ok { Engine.tag; doc; start; score }

(* [span_to_json] omits unknown (negative) cardinalities *)
let rec span_of_json j =
  let card name = Result.map (Option.value ~default:(-1)) (opt_int j name) in
  let* name = field_string j "op" in
  let* input = card "input" in
  let* output = card "output" in
  let* est = card "est" in
  let* gov_steps = card "steps" in
  let* elapsed_ns = field_int j "elapsed_ns" in
  let* attrs = opt_fields j "attrs" Json.to_string_opt in
  let* children = array ~absent:[] j "children" span_of_json in
  Ok
    { Core.Trace.name; input; output; est; gov_steps; elapsed_ns; attrs;
      children }

let result_of_json j =
  let* () =
    if Json.member "ok" j = Some (Json.Bool true) then Ok ()
    else Error "not a result: \"ok\" is not true"
  in
  let* total = field_int j "total" in
  let* limit = opt_int j "limit" in
  let* cached = opt_bool ~default:false j "cached" in
  let* steps_used = field_int j "steps_used" in
  let* rows = array j "results" row_of_json in
  let* trees =
    array ~absent:[] j "trees" (fun t ->
        match Json.to_string_opt t with
        | Some s -> Ok s
        | None -> ill_typed "trees")
  in
  let* plan = opt_string j "plan" in
  let* timings = opt_fields j "timings" Json.to_float_opt in
  let* trace =
    match Json.member "trace" j with
    | None -> Ok None
    | Some sp -> Result.map Option.some (span_of_json sp)
  in
  Ok
    { Engine.rows; trees; total; limit; cached; plan; timings; steps_used;
      trace }

let ok_plan_to_json plan =
  Json.Obj [ ("ok", Json.Bool true); ("plan", Json.String plan) ]

let error_to_json ~code ~message =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj [ ("code", Json.String code); ("message", Json.String message) ]
      );
    ]

let engine_error_to_json e =
  error_to_json ~code:(Engine.error_code e) ~message:(Engine.error_message e)

let ok_prepared_to_json id =
  Json.Obj [ ("ok", Json.Bool true); ("id", Json.Int id) ]

let health_to_json ?(updatable = false) ?checkpoint_in_progress ?verification
    ?shards ~generation ~source () =
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("status", Json.String "serving");
       ("generation", Json.Int generation);
       ("source", Json.String source);
       ("updatable", Json.Bool updatable);
     ]
    @ (match checkpoint_in_progress with
      | Some b -> [ ("checkpoint_in_progress", Json.Bool b) ]
      | None -> [])
    @ (match verification with
      | Some v -> [ ("verification", Json.String v) ]
      | None -> [])
    @ match shards with Some s -> [ ("shards", s) ] | None -> [])

let ok_mutation_to_json ~op ~name ~generation =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String op);
      ("name", Json.String name);
      ("generation", Json.Int generation);
    ]

let ok_checkpoint_to_json ~path ~generation =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "checkpoint");
      ("path", Json.String path);
      ("generation", Json.Int generation);
    ]

let ok_checkpoint_started_to_json () =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "checkpoint");
      ("started", Json.Bool true);
    ]

let lru_stats_to_json (s : Lru.stats) =
  Json.Obj
    [
      ("capacity", Json.Int s.capacity);
      ("entries", Json.Int s.entries);
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
    ]

let stats_to_json ?updates scheduler =
  let snap = Scheduler.snapshot scheduler in
  let db_stats = Store.Db.stats snap.Engine.db in
  let pager_stats =
    Store.Pager.stats (Store.Element_store.pager (Store.Db.elements snap.Engine.db))
  in
  let s = Scheduler.stats scheduler in
  let fault_fields =
    match Engine.fault_stats snap with
    | None -> []
    | Some f ->
      [
        ( "faults",
          Json.Obj
            [
              ("transient", Json.Int f.Store.Fault.transient);
              ("corrupt", Json.Int f.Store.Fault.corrupt);
              ("torn_writes", Json.Int f.Store.Fault.torn_writes);
              ("failed_fsyncs", Json.Int f.Store.Fault.failed_fsyncs);
            ] );
      ]
  in
  let delta_fields =
    match snap.Engine.delta with
    | None -> []
    | Some dv ->
      [
        ( "delta",
          Json.Obj
            [
              ("documents", Json.Int dv.Engine.delta_docs);
              ("tombstones", Json.Int dv.Engine.n_tomb);
            ] );
      ]
  in
  let updates_fields =
    match updates with
    | None -> []
    | Some u ->
      let ls = Store.Live.stats (Updates.live u) in
      [
        ( "updates",
          Json.Obj
            [
              ("wal_records", Json.Int ls.Store.Live.wal_records);
              ("wal_bytes", Json.Int ls.Store.Live.wal_bytes);
              ("delta_documents", Json.Int ls.Store.Live.delta_documents);
              ("tombstones", Json.Int ls.Store.Live.tombstones);
              ("checkpoints", Json.Int ls.Store.Live.checkpoints);
              ("frozen_documents", Json.Int ls.Store.Live.frozen_documents);
              ( "checkpoint_in_progress",
                Json.Bool (Updates.checkpoint_in_progress u) );
              ( "group_commit",
                Json.Obj
                  [
                    ("batches", Json.Int ls.Store.Live.gc_batches);
                    ("records", Json.Int ls.Store.Live.gc_records);
                    ("largest_batch", Json.Int ls.Store.Live.gc_largest_batch);
                  ] );
            ] );
      ]
  in
  Json.Obj
    ([
      ("ok", Json.Bool true);
      ( "db",
        Json.Obj
          [
            ("source", Json.String snap.Engine.source);
            ("generation", Json.Int snap.Engine.generation);
            ("documents", Json.Int db_stats.Store.Db.documents);
            ("elements", Json.Int db_stats.Store.Db.elements);
            ("distinct_terms", Json.Int db_stats.Store.Db.distinct_terms);
            ("occurrences", Json.Int db_stats.Store.Db.occurrences);
            ("pages", Json.Int db_stats.Store.Db.pages);
            ("index_bytes", Json.Int db_stats.Store.Db.index_bytes);
          ] );
      ( "pager",
        Json.Obj
          [
            ("reads", Json.Int pager_stats.Store.Pager.reads);
            ("misses", Json.Int pager_stats.Store.Pager.misses);
            ("failures", Json.Int pager_stats.Store.Pager.failures);
            ("pinned",
             Json.Bool
               (Store.Pager.pinned
                  (Store.Element_store.pager (Store.Db.elements snap.Engine.db))));
          ] );
      ( "scheduler",
        Json.Obj
          [
            ("workers", Json.Int s.Scheduler.workers);
            ("queue_depth", Json.Int s.Scheduler.queue_depth);
            ("queued", Json.Int s.Scheduler.queued);
            ("submitted", Json.Int s.Scheduler.submitted);
            ("rejected", Json.Int s.Scheduler.rejected);
            ("completed", Json.Int s.Scheduler.completed);
          ] );
      ("plan_cache", lru_stats_to_json s.Scheduler.plan_cache);
      ("result_cache", lru_stats_to_json s.Scheduler.result_cache);
      ("metrics", Metrics.to_json ());
    ]
    @ fault_fields @ delta_fields @ updates_fields)
