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
(* Response decoding *)

let mem name conv ~default j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> default

let row_of_json ~lo j : Engine.row =
  {
    tag = mem "tag" Json.to_string_opt ~default:"?" j;
    doc = lo + mem "doc" Json.to_int_opt ~default:0 j;
    start = mem "start" Json.to_int_opt ~default:(-1) j;
    score = mem "score" Json.to_float_opt ~default:0. j;
  }

type shard_result = {
  sr_shard : int;
  sr_endpoint : Shard_map.endpoint;
  sr_rows : Engine.row list;  (* doc ids already global *)
  sr_trees : string list;
  sr_total : int;
  sr_cached : bool;
  sr_steps : int;
  sr_plan : string option;
  sr_limit : int option;
  sr_trace : Json.t option;
}

(* A shard's answer is either unreachable (infrastructure), a
   protocol-level error object (the query itself failed — every shard
   fails the same way, so one is forwarded verbatim), or a decoded
   result with document ids lifted into the global space. *)
type outcome =
  | Unreachable of int * string
  | Refused of int * Json.t
  | Answered of shard_result

let decode_outcome t (i, result) =
  match result with
  | Error msg -> Unreachable (i, msg)
  | Ok (endpoint, json) ->
    if not (mem "ok" Json.to_bool_opt ~default:false json) then Refused (i, json)
    else begin
      let lo = (Shard_map.shard t.map i).Shard_map.lo in
      let rows =
        mem "results" Json.to_list_opt ~default:[] json
        |> List.map (row_of_json ~lo)
      in
      let trees =
        mem "trees" Json.to_list_opt ~default:[] json
        |> List.filter_map Json.to_string_opt
      in
      Answered
        {
          sr_shard = i;
          sr_endpoint = endpoint;
          sr_rows = rows;
          sr_trees = trees;
          sr_total = mem "total" Json.to_int_opt ~default:0 json;
          sr_cached = mem "cached" Json.to_bool_opt ~default:false json;
          sr_steps = mem "steps_used" Json.to_int_opt ~default:0 json;
          sr_plan = Option.bind (Json.member "plan" json) Json.to_string_opt;
          sr_limit = Option.bind (Json.member "limit" json) Json.to_int_opt;
          sr_trace = Json.member "trace" json;
        }
    end

let rec span_of_json j : Core.Trace.span =
  {
    name = mem "op" Json.to_string_opt ~default:"?" j;
    input = mem "input" Json.to_int_opt ~default:(-1) j;
    output = mem "output" Json.to_int_opt ~default:(-1) j;
    est = mem "est" Json.to_int_opt ~default:(-1) j;
    gov_steps = mem "steps" Json.to_int_opt ~default:(-1) j;
    elapsed_ns = mem "elapsed_ns" Json.to_int_opt ~default:0 j;
    attrs =
      (match Json.member "attrs" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string_opt v))
          fields
      | _ -> []);
    children =
      mem "children" Json.to_list_opt ~default:[] j |> List.map span_of_json;
  }

(* EXPLAIN ANALYZE across the wire: each shard's span tree is grafted
   under a synthetic [Shard] node inside one [Scatter] root, so a
   traced distributed query reads as one tree from fan-out to leaf
   operator. *)
let scatter_span ~elapsed_ns ~output ~steps answered =
  let children =
    List.map
      (fun sr ->
        {
          Core.Trace.name = "Shard";
          input = -1;
          output = -1;
          est = -1;
          gov_steps = sr.sr_steps;
          elapsed_ns =
            (match sr.sr_trace with
            | Some tj -> (span_of_json tj).Core.Trace.elapsed_ns
            | None -> 0);
          attrs =
            [
              ("shard", string_of_int sr.sr_shard);
              ("endpoint", Shard_map.endpoint_to_string sr.sr_endpoint);
            ];
          children =
            (match sr.sr_trace with Some tj -> [ span_of_json tj ] | None -> []);
        })
      answered
  in
  {
    Core.Trace.name = "Scatter";
    input = List.length answered;
    output;
    est = -1;
    gov_steps = steps;
    elapsed_ns;
    attrs = [];
    children;
  }

(* ------------------------------------------------------------------ *)
(* Merging *)

let truncate k rows =
  match k with
  | None -> rows
  | Some k when k < 0 -> rows
  | Some k -> List.filteri (fun i _ -> i < k) rows

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Deterministic gather of per-shard answers into the single-node
   result. Rows re-sort under the engine's row order (score desc,
   global doc, start): each shard returned its local prefix of that
   order and global ids preserve per-shard doc order, so the union's
   top slice is exactly the single-node top slice — ties included.
   Interpreter trees concatenate in shard order, which is global
   document order. *)
let merge_answers ~k ~ranked_k ~trace ~t0 answered =
  let answered = List.sort (fun a b -> compare a.sr_shard b.sr_shard) answered in
  let rows =
    List.sort Engine.compare_row (List.concat_map (fun sr -> sr.sr_rows) answered)
  in
  let trees = List.concat_map (fun sr -> sr.sr_trees) answered in
  let plan = List.find_map (fun sr -> sr.sr_plan) answered in
  let steps = sum (fun sr -> sr.sr_steps) answered in
  (* The compiled plan's row limit, a response field of every shard.
     Per-shard executions each apply it locally, so the gathered union
     can hold up to [shards * L] rows: re-applied here, it bounds both
     the row list and the reported total — min(L, sum of per-shard
     totals) equals the single-node total whether or not any shard
     saturated its local limit. *)
  let limit = List.find_map (fun sr -> sr.sr_limit) answered in
  let rows = truncate limit rows in
  let total =
    let s = sum (fun sr -> sr.sr_total) answered in
    match ranked_k, limit with
    | Some _, _ -> List.length (truncate ranked_k rows)
    | None, Some l -> min l s
    | None, None -> s
  in
  let rows = truncate ranked_k (truncate k rows) in
  let trees = truncate k trees in
  let elapsed = Unix.gettimeofday () -. t0 in
  {
    Engine.rows;
    trees;
    total;
    limit;
    cached = answered <> [] && List.for_all (fun sr -> sr.sr_cached) answered;
    plan;
    timings = [ ("scatter", elapsed); ("total", elapsed) ];
    steps_used = steps;
    trace =
      (if trace then
         Some
           (scatter_span
              ~elapsed_ns:(int_of_float (elapsed *. 1e9))
              ~output:(List.length rows) ~steps answered)
       else None);
  }

(* ------------------------------------------------------------------ *)
(* Request execution *)

let all_shards t = List.init (Shard_map.shard_count t.map) Fun.id

(* Replace any client-supplied θ with the coordinator's current one
   (the client's seed is already folded into the relay state). *)
let json_with_theta base theta =
  match base, theta with
  | Json.Obj fields, Some th when th > neg_infinity ->
    let fields = List.filter (fun (name, _) -> name <> "theta") fields in
    Json.Obj (fields @ [ ("theta", Json.Float th) ])
  | j, _ -> j

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

let respond t ~k ~ranked_k ~trace ~t0 outcomes =
  let unreachable, refused, answered = split_outcomes outcomes in
  match refused, answered with
  | (_, err) :: _, _ -> err
  | [], [] -> unavailable_error unreachable
  | [], _ ->
    if unreachable <> [] then begin
      Atomic.incr t.degraded;
      Log.warn (fun m ->
          m "serving degraded results: %d shard(s) unreachable"
            (List.length unreachable))
    end;
    let result = merge_answers ~k ~ranked_k ~trace ~t0 answered in
    Protocol.result_to_json ~extra:(degraded_extra unreachable) result

(* Structural families (query, search, phrase): one wave over every
   shard; per-shard answers are complete for their range, so a single
   concurrent fan-out is latency-optimal. *)
let exec_structural t ~k ~trace base_json =
  let t0 = Unix.gettimeofday () in
  let outcomes =
    scatter t (all_shards t) (fun _ -> base_json)
    |> List.map (decode_outcome t)
  in
  respond t ~k ~ranked_k:None ~trace ~t0 outcomes

(* Ranked top-k: scatter in waves of [window] shards (0 = one wave).
   After each wave the k-th best score gathered so far is published
   as θ and relayed to later waves, whose shards prune every document
   whose score bound falls strictly below it — the cross-shard
   instance of the monotone-threshold contract in {!Core.Merge.Theta}:
   θ only rises, never above the final k-th best, and equality is
   kept, so late shards skip work without ever losing a winner. *)
let exec_ranked t ~k ~theta ~trace base_json =
  let t0 = Unix.gettimeofday () in
  let kk = match k with Some k when k > 0 -> k | _ -> 10 in
  let shards = all_shards t in
  let nshards = List.length shards in
  let window =
    if t.window <= 0 then nshards else min t.window nshards
  in
  let theta_state = Core.Merge.Theta.make ?seed:theta () in
  let rec waves pending acc_rows acc_outcomes =
    match pending with
    | [] -> List.rev acc_outcomes
    | _ ->
      let wave = List.filteri (fun i _ -> i < window) pending in
      let rest = List.filteri (fun i _ -> i >= window) pending in
      let th = Core.Merge.Theta.get theta_state in
      let json =
        json_with_theta base_json (if th > neg_infinity then Some th else None)
      in
      let outcomes =
        scatter t wave (fun _ -> json) |> List.map (decode_outcome t)
      in
      let acc_rows =
        List.fold_left
          (fun acc o ->
            match o with Answered sr -> sr.sr_rows @ acc | _ -> acc)
          acc_rows outcomes
      in
      (* publish the gathered k-th best before the next wave *)
      (match
         truncate (Some kk) (List.sort Engine.compare_row acc_rows)
         |> List.rev
       with
      | ({ score; _ } : Engine.row) :: _ when List.length acc_rows >= kk ->
        Core.Merge.Theta.publish theta_state score
      | _ -> ());
      waves rest acc_rows (List.rev_append outcomes acc_outcomes)
  in
  let outcomes = waves shards [] [] in
  respond t ~k ~ranked_k:(Some kk) ~trace ~t0 outcomes

(* ------------------------------------------------------------------ *)
(* Non-exec ops *)

let forward_one t json =
  match shard_request t 0 json with
  | Ok (_, response) -> response
  | Error msg -> Protocol.error_to_json ~code:"unavailable" ~message:msg

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
                ("ok", Json.Bool (mem "ok" Json.to_bool_opt ~default:false response));
                ( "generation",
                  Json.Int (mem "generation" Json.to_int_opt ~default:0 response)
                );
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
      (fun acc e -> max acc (mem "generation" Json.to_int_opt ~default:0 e))
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
      let id =
        Mutex.protect t.prepared_lock (fun () ->
            match Hashtbl.find_opt t.prepared_ids q with
            | Some id -> id
            | None ->
              let id = t.next_prepared in
              t.next_prepared <- id + 1;
              Hashtbl.replace t.prepared id q;
              Hashtbl.replace t.prepared_ids q id;
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
  | Protocol.Exec ({ req = engine_req; k; trace; theta; _ } as e) ->
    let base_json = Protocol.request_to_json (Protocol.Exec e) in
    begin
      match engine_req with
      | Engine.Ranked _ -> exec_ranked t ~k ~theta ~trace base_json
      | Engine.Query _ | Engine.Search _ | Engine.Phrase _ ->
        exec_structural t ~k ~trace base_json
    end
  | Protocol.Explain _ -> forward_one t (Protocol.request_to_json req)
  | Protocol.Prepare { q } -> prepare t q
  | Protocol.Execute { id; k; limits; trace; parallelism } -> begin
    match
      Mutex.protect t.prepared_lock (fun () -> Hashtbl.find_opt t.prepared id)
    with
    | Some q ->
      let exec_req =
        Protocol.Exec
          {
            req = Engine.Query { q; mode = `Engine };
            k;
            limits;
            trace;
            parallelism;
            theta = None;
          }
      in
      exec_structural t ~k ~trace (Protocol.request_to_json exec_req)
    | None ->
      Protocol.error_to_json ~code:"unknown_statement"
        ~message:(Printf.sprintf "no prepared statement %d" id)
  end
  | Protocol.Insert _ | Protocol.Remove _ | Protocol.UpdateDoc _
  | Protocol.Checkpoint _ -> read_only_error
  | Protocol.Stats -> stats t
  | Protocol.Health -> health t
