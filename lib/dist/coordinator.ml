module Json = Service.Json
module Protocol = Service.Protocol
module Engine = Service.Engine

let src = Logs.Src.create "tix.dist" ~doc:"distributed query coordinator"

module Log = (val Logs.src_log src)

type t = {
  map : Shard_map.t;
  client : Client.t;
  source : string;
  window : int;
  (* index of the replica currently serving each shard; failover
     rotates it so one dead primary costs one timeout, not one per
     request *)
  active : int Atomic.t array;
  degraded : int Atomic.t;
  prepared_lock : Mutex.t;
  prepared : (int, string) Hashtbl.t;
  prepared_ids : (string, int) Hashtbl.t;
  mutable next_prepared : int;
}

let create ?(window = 0) ?client ?(source = "manifest") map =
  let client = match client with Some c -> c | None -> Client.create () in
  {
    map;
    client;
    source;
    window;
    active = Array.init (Shard_map.shard_count map) (fun _ -> Atomic.make 0);
    degraded = Atomic.make 0;
    prepared_lock = Mutex.create ();
    prepared = Hashtbl.create 16;
    prepared_ids = Hashtbl.create 16;
    next_prepared = 1;
  }

let client t = t.client
let shard_map t = t.map
let degraded_served t = Atomic.get t.degraded

(* ------------------------------------------------------------------ *)
(* Shard I/O: replica failover + scatter *)

(* One request against shard [i]: start at the replica that served
   last time and rotate through the rest on failure. A replica that
   answers becomes the shard's active replica, so failover cost is
   paid once per outage, not per request. *)
let shard_request t i json =
  let shard = Shard_map.shard t.map i in
  let replicas = Array.of_list shard.Shard_map.replicas in
  let n = Array.length replicas in
  let start = Atomic.get t.active.(i) mod n in
  let rec go tried last_err =
    if tried = n then
      Error
        (Printf.sprintf "shard %d [%d,%d): %s" i shard.Shard_map.lo
           shard.Shard_map.hi
           (Option.value ~default:"no replicas" last_err))
    else begin
      let r = (start + tried) mod n in
      match Client.request t.client replicas.(r) json with
      | Ok response ->
        if r <> Atomic.get t.active.(i) then begin
          Atomic.set t.active.(i) r;
          Log.info (fun m ->
              m "shard %d failed over to replica %s" i
                (Shard_map.endpoint_to_string replicas.(r)))
        end;
        Ok (replicas.(r), response)
      | Error e ->
        Log.debug (fun m ->
            m "shard %d replica %s: %s" i
              (Shard_map.endpoint_to_string replicas.(r))
              (Client.error_message e));
        go (tried + 1) (Some (Client.error_message e))
    end
  in
  go 0 None

(* Fan a request out to the given shards, one thread each; results
   come back indexed so merges can honour shard order. *)
let scatter t idxs make_json =
  let results = Array.make (List.length idxs) (0, Error "unset") in
  let threads =
    List.mapi
      (fun slot i ->
        Thread.create
          (fun () ->
            let outcome =
              try shard_request t i (make_json i)
              with e -> Error (Printexc.to_string e)
            in
            results.(slot) <- (i, outcome))
          ())
      idxs
  in
  List.iter Thread.join threads;
  Array.to_list results

(* ------------------------------------------------------------------ *)
(* Shard answers *)

type shard_result = {
  shard : int;
  endpoint : Shard_map.endpoint;
  result : Engine.result;  (* document ids already global *)
}

(* A shard's answer is either unreachable (infrastructure, or an
   answer that does not decode), a protocol-level error object (the
   query itself failed — every shard fails the same way, so one is
   forwarded verbatim), or a decoded result with document ids lifted
   into the global space. *)
type outcome =
  | Unreachable of int * string
  | Refused of int * Json.t
  | Answered of shard_result

let is_ok json = Json.member "ok" json = Some (Json.Bool true)

let decode_outcome t (i, outcome) =
  match outcome with
  | Error msg -> Unreachable (i, msg)
  | Ok (_, json) when not (is_ok json) -> Refused (i, json)
  | Ok (endpoint, json) -> (
    match Protocol.result_of_json json with
    | Error msg ->
      Unreachable (i, Printf.sprintf "shard %d: bad answer: %s" i msg)
    | Ok r ->
      let lo = (Shard_map.shard t.map i).Shard_map.lo in
      let lift (row : Engine.row) = { row with doc = lo + row.doc } in
      let result = { r with rows = List.map lift r.rows } in
      Answered { shard = i; endpoint; result })

(* EXPLAIN ANALYZE across the wire: each shard's span tree is grafted
   under a synthetic [Shard] node inside one [Scatter] root, so a
   traced distributed query reads as one tree from fan-out to leaf
   operator. *)
let scatter_span ~elapsed_ns ~output ~steps answered =
  let shard_span a =
    {
      Core.Trace.name = "Shard";
      input = -1;
      output = -1;
      est = -1;
      gov_steps = a.result.steps_used;
      elapsed_ns =
        (match a.result.trace with Some sp -> sp.elapsed_ns | None -> 0);
      attrs =
        [
          ("shard", string_of_int a.shard);
          ("endpoint", Shard_map.endpoint_to_string a.endpoint);
        ];
      children = Option.to_list a.result.trace;
    }
  in
  {
    Core.Trace.name = "Scatter";
    input = List.length answered;
    output;
    est = -1;
    gov_steps = steps;
    elapsed_ns;
    attrs = [];
    children = List.map shard_span answered;
  }

(* ------------------------------------------------------------------ *)
(* Request execution *)

let all_shards t = List.init (Shard_map.shard_count t.map) Fun.id

(* Partition scatter outcomes; a Refused (well-formed error response)
   anywhere wins — the query itself is at fault and every shard
   refuses identically, so the lowest shard's error is the answer. *)
let split_outcomes outcomes =
  let unreachable, refused, answered =
    List.fold_left
      (fun (u, r, a) o ->
        match o with
        | Unreachable (i, msg) -> ((i, msg) :: u, r, a)
        | Refused (i, j) -> (u, (i, j) :: r, a)
        | Answered sr -> (u, r, sr :: a))
      ([], [], []) outcomes
  in
  (List.rev unreachable, List.rev refused, List.rev answered)

let degraded_extra unreachable =
  if unreachable = [] then []
  else
    [
      ("degraded", Json.Bool true);
      ( "shards_unavailable",
        Json.List (List.map (fun (i, _) -> Json.Int i) unreachable) );
    ]

let unavailable_error unreachable =
  Protocol.error_to_json ~code:"unavailable"
    ~message:
      (String.concat "; " (List.map snd unreachable))

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let plan_limit outcomes =
  List.find_map
    (function Answered a -> a.result.limit | Unreachable _ | Refused _ -> None)
    outcomes

(* A scatter over the shards that ends in the single node's own rules.
   Every shard's rows go into one Top_k heap ordered as
   [Engine.compare_row] orders rows and sized as [Engine.exec] sizes
   its selector: k rows ([Engine.row_cap]), at most [limit] — ranked's
   k ([Engine.ranked_k]) or the compiled plan's [stop after], which
   every shard reports. [total] is [min limit (Σ shard totals)]: a
   shard that saturates [limit] saturates the union. Interpreter
   trees concatenate in shard order, which is global document order.

   Search, phrase and ranked check the result cap once, against the
   merged [total], as the single node does, so their shards run
   without it. A compiled or interpreted plan checks the cap on its
   intermediate counts per segment, so queries forward it. Steps are
   counted per process, so [max_steps] stays per shard.

   Ranked scatters in waves of [window] shards (0 = one wave), and the
   heap spans the waves: once it holds k rows, its cutoff is published
   as θ and relayed to later waves, whose shards prune every document
   whose score bound falls strictly below it — the cross-shard
   instance of the monotone-threshold contract in {!Core.Merge.Theta}:
   θ only rises, never above the final k-th best, and equality is
   kept, so late shards skip work without ever losing a winner. *)
let exec t ~req ~k ~(limits : Core.Governor.limits) ~trace ~parallelism
    ~theta =
  let t0 = Unix.gettimeofday () in
  (* per family: the cap checked here, the wave size, ranked's limit *)
  let cap_check, window, ranked_limit =
    let all = Shard_map.shard_count t.map in
    match req with
    | Engine.Query _ -> (None, all, None)
    | Engine.Search _ | Engine.Phrase _ -> (limits.max_results, all, None)
    | Engine.Ranked _ ->
      ( limits.max_results,
        (if t.window > 0 then t.window else all),
        Some (Engine.ranked_k k) )
  in
  let forwarded =
    match cap_check with
    | Some _ -> { limits with max_results = None }
    | None -> limits
  in
  let gov =
    Core.Governor.start
      { Core.Governor.unlimited with max_results = cap_check }
  in
  let take = List.filteri (fun i _ -> i < window) in
  let drop = List.filteri (fun i _ -> i >= window) in
  let theta_state = Core.Merge.Theta.make ?seed:theta () in
  let run_wave shards =
    let th = Core.Merge.Theta.get theta_state in
    let theta = if th > neg_infinity then Some th else None in
    let json =
      Protocol.request_to_json
        (Protocol.Exec
           { req; k; limits = forwarded; trace; parallelism; theta })
    in
    scatter t shards (fun _ -> json) |> List.map (decode_outcome t)
  in
  let first = run_wave (take (all_shards t)) in
  let limit =
    match ranked_limit with Some _ -> ranked_limit | None -> plan_limit first
  in
  let cap = min (Engine.row_cap k) (Option.value ~default:max_int limit) in
  (* a shard returns at most [cap] rows, so with [cap = 0] none arrive *)
  let heap =
    Core.Top_k.create ~tie:(fun a b -> Engine.compare_row b a) (max 1 cap)
  in
  let gather outcomes =
    List.iter
      (function
        | Answered a ->
          List.iter
            (fun (r : Engine.row) -> Core.Top_k.add heap ~score:r.score r)
            a.result.rows
        | Unreachable _ | Refused _ -> ())
      outcomes;
    Option.iter
      (Core.Merge.Theta.publish theta_state)
      (Core.Top_k.cutoff heap);
    outcomes
  in
  let rec waves pending gathered =
    match pending with
    | [] -> List.concat (List.rev gathered)
    | _ -> waves (drop pending) (gather (run_wave (take pending)) :: gathered)
  in
  let outcomes = waves (drop (all_shards t)) [ gather first ] in
  let unreachable, refused, answered = split_outcomes outcomes in
  match refused, answered with
  | (_, err) :: _, _ -> err
  | [], [] -> unavailable_error unreachable
  | [], _ -> (
    let steps = sum (fun a -> a.result.steps_used) answered in
    let total =
      let s = sum (fun a -> a.result.total) answered in
      match limit with Some l -> min l s | None -> s
    in
    match
      Core.Governor.tick_n gov steps;
      Core.Governor.check_results gov total
    with
    | exception Core.Governor.Resource_exhausted v ->
      Protocol.engine_error_to_json (Engine.Exhausted v)
    | () ->
      if unreachable <> [] then begin
        Atomic.incr t.degraded;
        Log.warn (fun m ->
            m "serving degraded results: %d shard(s) unreachable"
              (List.length unreachable))
      end;
      let rows = List.map snd (Core.Top_k.to_sorted_list heap) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Protocol.result_to_json ~extra:(degraded_extra unreachable)
        {
          Engine.rows;
          trees =
            List.concat_map (fun a -> a.result.trees) answered
            |> List.filteri (fun i _ -> i < Engine.row_cap k);
          total;
          limit = plan_limit outcomes;
          cached = List.for_all (fun a -> a.result.cached) answered;
          plan = List.find_map (fun a -> a.result.plan) answered;
          timings = [ ("scatter", elapsed); ("total", elapsed) ];
          steps_used = steps;
          trace =
            (if trace then
               Some
                 (scatter_span
                    ~elapsed_ns:(int_of_float (elapsed *. 1e9))
                    ~output:(List.length rows) ~steps answered)
             else None);
        })

(* ------------------------------------------------------------------ *)
(* Non-exec ops *)

let forward_one t json =
  match shard_request t 0 json with
  | Ok (_, response) -> response
  | Error msg -> Protocol.error_to_json ~code:"unavailable" ~message:msg

let generation j =
  Option.value ~default:0
    (Option.bind (Json.member "generation" j) Json.to_int_opt)

let shard_health t =
  let outcomes = scatter t (all_shards t) (fun _ -> Json.Obj [ ("op", Json.String "health") ]) in
  let entries =
    List.map
      (fun (i, outcome) ->
        let shard = Shard_map.shard t.map i in
        let base =
          [
            ("shard", Json.Int i);
            ("lo", Json.Int shard.Shard_map.lo);
            ("hi", Json.Int shard.Shard_map.hi);
          ]
        in
        match outcome with
        | Ok (ep, response) ->
          Json.Obj
            (base
            @ [
                ("endpoint", Json.String (Shard_map.endpoint_to_string ep));
                ("ok", Json.Bool (is_ok response));
                ("generation", Json.Int (generation response));
              ])
        | Error msg ->
          Json.Obj
            (base @ [ ("ok", Json.Bool false); ("error", Json.String msg) ]))
      outcomes
  in
  let down =
    List.length (List.filter (fun (_, o) -> Result.is_error o) outcomes)
  in
  (entries, down)

let health t =
  let entries, down = shard_health t in
  let generation =
    List.fold_left
      (fun acc e -> max acc (generation e))
      0 entries
  in
  let shards =
    Json.Obj
      [
        ("total", Json.Int (Shard_map.shard_count t.map));
        ("unreachable", Json.Int down);
        ("degraded", Json.Bool (down > 0));
        ("backends", Json.List entries);
      ]
  in
  Protocol.health_to_json ~shards ~generation ~source:t.source ()

let stats t =
  let outcomes =
    scatter t (all_shards t) (fun _ -> Json.Obj [ ("op", Json.String "stats") ])
  in
  let entries =
    List.map
      (fun (i, outcome) ->
        let shard = Shard_map.shard t.map i in
        Json.Obj
          [
            ("shard", Json.Int i);
            ("lo", Json.Int shard.Shard_map.lo);
            ("hi", Json.Int shard.Shard_map.hi);
            ( "stats",
              match outcome with
              | Ok (_, response) -> response
              | Error msg ->
                Protocol.error_to_json ~code:"unavailable" ~message:msg );
          ])
      outcomes
  in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ( "coordinator",
        Json.Obj
          [
            ("shards", Json.Int (Shard_map.shard_count t.map));
            ("window", Json.Int t.window);
            ("requests", Json.Int (Client.requests t.client));
            ("reconnects", Json.Int (Client.reconnects t.client));
            ("degraded_served", Json.Int (Atomic.get t.degraded));
          ] );
      ("shards", Json.List entries);
    ]

(* Prepared statements are coordinator-local: the text is kept here
   and re-scattered as a plain query on execute, so backends need no
   shared statement id space. *)
let prepare t q =
  match forward_one t (Json.Obj [ ("op", Json.String "explain"); ("q", Json.String q) ]) with
  | Json.Obj fields as response ->
    if List.assoc_opt "ok" fields = Some (Json.Bool true) then
      (* keyed as [Scheduler.prepare] keys: two spellings of one query
         share an id *)
      let key = Engine.canonical_key (Engine.Query { q; mode = `Engine }) in
      let id =
        Mutex.protect t.prepared_lock (fun () ->
            match Hashtbl.find_opt t.prepared_ids key with
            | Some id -> id
            | None ->
              let id = t.next_prepared in
              t.next_prepared <- id + 1;
              Hashtbl.replace t.prepared id q;
              Hashtbl.replace t.prepared_ids key id;
              id)
      in
      Protocol.ok_prepared_to_json id
    else response
  | response -> response

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let read_only_error =
  Protocol.error_to_json ~code:"read_only"
    ~message:
      "coordinator is read-only: apply updates on the shard backends and \
       re-shard"

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Exec { req; k; limits; trace; parallelism; theta } ->
    exec t ~req ~k ~limits ~trace ~parallelism ~theta
  | Protocol.Explain _ -> forward_one t (Protocol.request_to_json req)
  | Protocol.Prepare { q } -> prepare t q
  | Protocol.Execute { id; k; limits; trace; parallelism } -> begin
    match
      Mutex.protect t.prepared_lock (fun () -> Hashtbl.find_opt t.prepared id)
    with
    | Some q ->
      exec t ~req:(Engine.Query { q; mode = `Engine }) ~k ~limits ~trace
        ~parallelism ~theta:None
    | None ->
      Protocol.error_to_json ~code:"unknown_statement"
        ~message:(Printf.sprintf "no prepared statement %d" id)
  end
  | Protocol.Insert _ | Protocol.Remove _ | Protocol.UpdateDoc _
  | Protocol.Checkpoint _ -> read_only_error
  | Protocol.Stats -> stats t
  | Protocol.Health -> health t
