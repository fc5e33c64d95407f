(* Distributed coordinator tests: manifest invariants, scatter-gather
   equality against a single-node server over real sockets (2 and 4
   shards, every access family, ties included), θ-relay windows,
   replica failover, torn-connection retry, and the degraded path.

   The oracle is the single-node server over the whole corpus: the
   coordinator's response must be byte-identical (timings and the
   cache flag stripped — both are nondeterministic across runs). *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

module Json = Service.Json
module Protocol = Service.Protocol

(* ------------------------------------------------------------------ *)
(* Corpus: planted terms with frequencies that force score ties across
   shard boundaries — the merge's (score desc, doc, start) tie-break
   must reproduce the single-node order exactly. *)

let cfg =
  {
    Workload.Corpus.articles = 24;
    seed = 13;
    chapters_per_article = 2;
    sections_per_chapter = 2;
    paragraphs_per_section = 2;
    words_per_paragraph = 14;
    vocabulary = 150;
    planted_terms = [ ("pxone", 120); ("pxtwo", 70); ("pxrare", 5) ];
    planted_phrases = [ ("pxpa", "pxpb", 15) ];
  }

(* trees stay retained (the default) so the interpreter path works on
   every shard: compact keeps trees when its sources had them *)
let full_db = lazy (Store.Db.load (Workload.Corpus.generate cfg))

let doc_count () =
  Store.Catalog.document_count (Store.Db.catalog (Lazy.force full_db))

let snapshot_exn ~source db =
  match Service.Engine.of_db ~source db with
  | Ok s -> s
  | Error msg -> Alcotest.failf "of_db: %s" msg

(* ------------------------------------------------------------------ *)
(* Cluster harness: one scheduler per shard (shared by its replica
   servers, like replicas serving one image), real TCP servers on
   kernel-assigned ports. *)

type cluster = {
  map : Dist.Shard_map.t;
  servers : Service.Server.t array array;  (* per shard, per replica *)
  schedulers : Service.Scheduler.t array;
}

let start_cluster ?(replicas = 1) ?(db = Lazy.force full_db) n =
  let docs = Store.Catalog.document_count (Store.Db.catalog db) in
  let ranges = Dist.Shard_map.ranges ~docs ~shards:n in
  let parts =
    List.mapi
      (fun i (lo, hi) ->
        let tombstones = Array.init docs (fun d -> d < lo || d >= hi) in
        let shard_db = Store.Db.compact ~base:db ~delta:None ~tombstones in
        let snap = snapshot_exn ~source:(Printf.sprintf "shard-%d" i) shard_db in
        let scheduler = Service.Scheduler.create ~workers:1 snap in
        let servers =
          Array.init replicas (fun _ -> Service.Server.start scheduler)
        in
        let eps =
          Array.to_list servers
          |> List.map (fun s ->
                 {
                   Dist.Shard_map.host = "127.0.0.1";
                   port = Service.Server.port s;
                 })
        in
        ( { Dist.Shard_map.lo; hi; image = Printf.sprintf "shard-%d" i;
            replicas = eps },
          servers, scheduler ))
      ranges
  in
  let map =
    match Dist.Shard_map.make (List.map (fun (s, _, _) -> s) parts) with
    | Ok m -> m
    | Error msg -> Alcotest.failf "manifest: %s" msg
  in
  {
    map;
    servers = Array.of_list (List.map (fun (_, s, _) -> s) parts);
    schedulers = Array.of_list (List.map (fun (_, _, s) -> s) parts);
  }

let stop_cluster c =
  Array.iter (Array.iter Service.Server.stop) c.servers;
  Array.iter Service.Scheduler.shutdown c.schedulers

let with_cluster ?replicas ?db n f =
  let c = start_cluster ?replicas ?db n in
  Fun.protect ~finally:(fun () -> stop_cluster c) (fun () -> f c)

let with_single ?(db = Lazy.force full_db) f =
  let snap = snapshot_exn ~source:"single" db in
  let scheduler = Service.Scheduler.create ~workers:1 snap in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown scheduler)
    (fun () -> f (Service.Server.handle scheduler))

let parse_exn line =
  match Protocol.parse_request line with
  | Ok r -> r
  | Error e -> Alcotest.failf "bad request %s: %s" line e

(* timings are wall-clock, the cache flag depends on execution
   history, steps_used is per-process resource accounting (the
   coordinator reports the sum over shards), and the plan text
   carries shard-local cost estimates (a shard's statistics cover
   its range, not the corpus) — everything else must match byte for
   byte. Plan *presence* must still agree; [compare_all] checks it. *)
let strip json =
  match json with
  | Json.Obj fields ->
    Json.Obj
      (List.filter
         (fun (name, _) ->
           name <> "timings" && name <> "cached" && name <> "steps_used"
           && name <> "plan")
         fields)
  | j -> j

let has_plan json = Json.member "plan" json <> None

let response_ok json =
  Json.member "ok" json = Some (Json.Bool true)

(* ------------------------------------------------------------------ *)
(* Shard_map *)

let test_ranges () =
  check bool_ "even split" true
    (Dist.Shard_map.ranges ~docs:12 ~shards:4
    = [ (0, 3); (3, 6); (6, 9); (9, 12) ]);
  check bool_ "remainder spreads left" true
    (Dist.Shard_map.ranges ~docs:10 ~shards:3 = [ (0, 4); (4, 7); (7, 10) ]);
  check bool_ "more shards than docs clamps" true
    (Dist.Shard_map.ranges ~docs:2 ~shards:5 = [ (0, 1); (1, 2) ]);
  check bool_ "no docs" true (Dist.Shard_map.ranges ~docs:0 ~shards:3 = []);
  (* generic coverage property *)
  List.iter
    (fun (docs, shards) ->
      let rs = Dist.Shard_map.ranges ~docs ~shards in
      let rec covered lo = function
        | [] -> lo = docs
        | (l, h) :: rest -> l = lo && h > l && covered h rest
      in
      check bool_
        (Printf.sprintf "covers [0,%d) in %d" docs shards)
        true (covered 0 rs))
    [ (1, 1); (7, 2); (24, 4); (100, 7); (5, 5) ]

let ep port = { Dist.Shard_map.host = "127.0.0.1"; port }

let shard ~lo ~hi ports =
  {
    Dist.Shard_map.lo;
    hi;
    image = Printf.sprintf "s-%d.tix" lo;
    replicas = List.map ep ports;
  }

let test_manifest_invariants () =
  let expect_error what shards =
    match Dist.Shard_map.make shards with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  expect_error "empty manifest" [];
  expect_error "gap" [ shard ~lo:0 ~hi:5 [ 1 ]; shard ~lo:6 ~hi:9 [ 2 ] ];
  expect_error "overlap" [ shard ~lo:0 ~hi:5 [ 1 ]; shard ~lo:4 ~hi:9 [ 2 ] ];
  expect_error "not starting at 0" [ shard ~lo:1 ~hi:5 [ 1 ] ];
  expect_error "empty range" [ shard ~lo:0 ~hi:0 [ 1 ] ];
  expect_error "no replicas" [ shard ~lo:0 ~hi:5 [] ];
  match Dist.Shard_map.make [ shard ~lo:0 ~hi:5 [ 1; 2 ]; shard ~lo:5 ~hi:7 [ 3 ] ] with
  | Error msg -> Alcotest.failf "valid manifest rejected: %s" msg
  | Ok m ->
    check int_ "two shards" 2 (Dist.Shard_map.shard_count m);
    check int_ "total docs" 7 (Dist.Shard_map.total_docs m)

let test_manifest_roundtrip () =
  let shards = [ shard ~lo:0 ~hi:4 [ 7100; 7101 ]; shard ~lo:4 ~hi:9 [ 7102 ] ] in
  let m =
    match Dist.Shard_map.make shards with
    | Ok m -> m
    | Error e -> Alcotest.failf "make: %s" e
  in
  (match Dist.Shard_map.of_json (Dist.Shard_map.to_json m) with
  | Ok m' ->
    check bool_ "json roundtrip" true (Dist.Shard_map.shards m' = shards)
  | Error e -> Alcotest.failf "of_json: %s" e);
  (* version guard *)
  (match
     Dist.Shard_map.of_json
       (Json.Obj [ ("version", Json.Int 9); ("shards", Json.List []) ])
   with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error _ -> ());
  let path = Filename.temp_file "tix_manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dist.Shard_map.save m path;
      match Dist.Shard_map.load path with
      | Ok m' ->
        check bool_ "file roundtrip" true (Dist.Shard_map.shards m' = shards)
      | Error e -> Alcotest.failf "load: %s" e)

(* ------------------------------------------------------------------ *)
(* Scatter-gather equality: every family, 2 and 4 shards *)

let engine_query =
  {|
  for $a in document("*")//article/descendant-or-self::*
  score $a using ScoreFoo($a, {"pxone"}, {"pxtwo"})
  return <r>{$a}</r>
  sortby(score)
  threshold $a/@score > 0 stop after 10
  |}

let pick_query =
  {|
  for $a in document("*")//article/descendant-or-self::*
  score $a using ScoreFoo($a, {"pxone"}, {"pxrare"})
  pick $a using PickFoo()
  return <r>{$a}</r>
  sortby(score)
  threshold $a/@score > 0 stop after 10
  |}

(* interpreter trees merge by shard-order concatenation = document
   order, so the distributed contract covers unsorted tree output *)
let interp_query =
  {|for $a in document("*")//section-title return <r>{$a}</r>|}

let quote q =
  Json.to_string (Json.String q)

let family_requests =
  [
    {|{"op":"ranked","terms":["pxone","pxtwo"],"k":5}|};
    {|{"op":"ranked","terms":["pxone","pxtwo"]}|};
    {|{"op":"ranked","terms":["pxone"],"k":1}|};
    {|{"op":"ranked","terms":["pxrare"],"k":3}|};
    {|{"op":"ranked","terms":["pxone","pxtwo","pxrare"],"k":100}|};
    {|{"op":"search","terms":["pxone"],"k":10}|};
    {|{"op":"search","terms":["pxone","pxtwo"]}|};
    {|{"op":"search","terms":["pxone","pxtwo"],"complex":true,"k":12}|};
    {|{"op":"search","terms":["pxone","pxtwo"],"method":"enhanced","k":7}|};
    {|{"op":"search","terms":["pxone","pxtwo"],"method":"genmeet","k":7}|};
    {|{"op":"phrase","phrase":"pxpa pxpb"}|};
    {|{"op":"phrase","phrase":"pxpa pxpb","comp3":true,"k":4}|};
    Printf.sprintf {|{"op":"query","q":%s,"k":6}|} (quote engine_query);
    Printf.sprintf {|{"op":"query","q":%s,"k":20}|} (quote engine_query);
    Printf.sprintf {|{"op":"query","q":%s,"k":6}|} (quote pick_query);
    Printf.sprintf {|{"op":"query","q":%s,"mode":"interp","k":8}|}
      (quote interp_query);
    (* k = 0 returns no rows but the whole total; k = -1 every row *)
    {|{"op":"ranked","terms":["pxone","pxtwo"],"k":0}|};
    {|{"op":"ranked","terms":["pxone","pxtwo"],"k":-1}|};
    {|{"op":"search","terms":["pxone"],"k":0}|};
    {|{"op":"search","terms":["pxone","pxtwo"],"k":-1}|};
    {|{"op":"phrase","phrase":"pxpa pxpb","k":0}|};
    Printf.sprintf {|{"op":"query","q":%s,"k":0}|} (quote engine_query);
    Printf.sprintf {|{"op":"query","q":%s,"k":-1}|} (quote pick_query);
    Printf.sprintf {|{"op":"query","q":%s,"mode":"interp","k":0}|}
      (quote interp_query);
    (* error responses must forward verbatim too *)
    {|{"op":"ranked","terms":[""],"k":5}|};
    {|{"op":"query","q":"for $a in","k":5}|};
  ]

let compare_all ~what single coordinator =
  List.iter
    (fun line ->
      let req = parse_exn line in
      let oracle = single req in
      let merged = Dist.Coordinator.handle coordinator req in
      check string_
        (Printf.sprintf "%s: %s" what line)
        (Json.to_string (strip oracle))
        (Json.to_string (strip merged));
      check bool_
        (Printf.sprintf "%s: plan presence: %s" what line)
        (has_plan oracle) (has_plan merged))
    family_requests

let test_matches_single_node () =
  with_single (fun single ->
      (* sanity: the oracle itself must answer the non-error requests *)
      List.iteri
        (fun i line ->
          if i < List.length family_requests - 2 then
            check bool_
              (Printf.sprintf "oracle answers %s" line)
              true
              (response_ok (single (parse_exn line))))
        family_requests;
      List.iter
        (fun n ->
          with_cluster n (fun c ->
              let coord =
                Dist.Coordinator.create ~source:"test" c.map
              in
              compare_all ~what:(Printf.sprintf "%d shards" n) single coord;
              (* a second pass hits warm caches on every shard — the
                 merged answer must not change *)
              compare_all
                ~what:(Printf.sprintf "%d shards, cached" n)
                single coord;
              Dist.Client.close (Dist.Coordinator.client coord)))
        [ 2; 4 ])

(* The result cap bounds the merged answer, not each shard's share:
   under a [max_results] at least every shard's total but below the
   merged total, search, phrase and ranked are [exhausted] with the
   single node's "result cap of C (got N)"; under the merged total
   itself they answer as the single node does. Ranked needs a k above
   the number of matching documents for its total to exceed a
   shard's. *)
let test_result_cap_spans_shards () =
  let requests =
    [
      {|{"op":"search","terms":["pxone"],"k":3|};
      {|{"op":"phrase","phrase":"pxpa pxpb","k":3|};
      {|{"op":"ranked","terms":["pxone","pxtwo"],"k":100|};
    ]
  in
  let with_cap line cap =
    parse_exn (Printf.sprintf {|%s,"max_results":%d}|} line cap)
  in
  let total json =
    match Option.bind (Json.member "total" json) Json.to_int_opt with
    | Some n -> n
    | None -> Alcotest.failf "no total in %s" (Json.to_string json)
  in
  (* an answer, or the error code and the breached limit: the text
     after the ':' of "resource exhausted after N steps (T s): ...",
     without the steps and the time, which differ *)
  let verdict json =
    match Json.member "error" json with
    | None -> Json.to_string (strip json)
    | Some err ->
      let field name =
        Option.value ~default:"?"
          (Option.bind (Json.member name err) Json.to_string_opt)
      in
      let message = field "message" in
      let limit =
        match String.index_opt message ':' with
        | Some i -> String.sub message i (String.length message - i)
        | None -> message
      in
      field "code" ^ limit
  in
  with_single (fun single ->
      List.iter
        (fun n ->
          with_cluster n (fun c ->
              let coord = Dist.Coordinator.create ~source:"test" c.map in
              List.iter
                (fun line ->
                  let unlimited = parse_exn (line ^ "}") in
                  let merged = total (single unlimited) in
                  let largest =
                    Array.fold_left
                      (fun acc sched ->
                        max acc (total (Service.Server.handle sched unlimited)))
                      0 c.schedulers
                  in
                  check bool_
                    (Printf.sprintf "%d shards: %s: a shard total %d below %d" n
                       line largest merged)
                    true (largest < merged);
                  List.iter
                    (fun cap ->
                      let req = with_cap line cap in
                      let expected = single req in
                      let what =
                        Printf.sprintf "%d shards: %s under max_results %d" n
                          line cap
                      in
                      check bool_
                        (what ^ ": the single node refuses iff below total")
                        (cap < merged)
                        (not (response_ok expected));
                      check string_ what (verdict expected)
                        (verdict (Dist.Coordinator.handle coord req)))
                    [ largest; merged - 1; merged ])
                requests;
              Dist.Client.close (Dist.Coordinator.client coord)))
        [ 2; 4 ])

(* θ-relay: with wave size 1 every later shard receives the k-th best
   score gathered so far and prunes against it; answers must still be
   byte-identical (the threshold is provably below the final k-th
   best, and equality survives for the doc-id tie-break) *)
let test_ranked_window_relay () =
  with_single (fun single ->
      with_cluster 4 (fun c ->
          List.iter
            (fun window ->
              let coord =
                Dist.Coordinator.create ~window ~source:"test" c.map
              in
              List.iter
                (fun line ->
                  let req = parse_exn line in
                  let expected = Json.to_string (strip (single req)) in
                  let got =
                    Json.to_string
                      (strip (Dist.Coordinator.handle coord req))
                  in
                  check string_
                    (Printf.sprintf "window %d: %s" window line)
                    expected got)
                [
                  {|{"op":"ranked","terms":["pxone","pxtwo"],"k":1}|};
                  {|{"op":"ranked","terms":["pxone","pxtwo"],"k":5}|};
                  {|{"op":"ranked","terms":["pxone","pxtwo"],"k":10}|};
                  {|{"op":"ranked","terms":["pxrare"],"k":4}|};
                  {|{"op":"ranked","terms":["pxone"],"k":200}|};
                ];
              Dist.Client.close (Dist.Coordinator.client coord))
            [ 1; 2; 3 ]))

(* The plan's row limit reaches the coordinator as the response's
   "limit" field. A document named "limit: 2" puts that text into the
   plan's "document glob:" line, ahead of the plan's own "limit: 5"
   line, so a coordinator that read the limit out of the plan text
   would cut the merged answer to 2 rows. *)
let test_limit_field () =
  let article =
    {|<article><title>alpha beta</title><sec><p>alpha alpha</p><p>alpha gamma</p><p>beta alpha</p></sec><sec><p>alpha</p><p>alpha delta</p></sec></article>|}
  in
  let db =
    Store.Db.of_documents
      (List.map
         (fun name -> (name, Xmlkit.Parser.parse_string_exn article))
         [ "a.xml"; "b.xml"; "limit: 2"; "d.xml" ])
  in
  let q =
    {|for $a in document("limit: 2")//article/descendant-or-self::*
      score $a using ScoreFoo($a, {"alpha"}, {})
      return <r>{$a}</r>
      sortby(score)
      threshold $a/@score > 0 stop after 5|}
  in
  let req = parse_exn (Printf.sprintf {|{"op":"query","q":%s,"k":10}|} (quote q)) in
  let rows json =
    match Json.member "results" json with
    | Some (Json.List rows) -> List.length rows
    | _ -> -1
  in
  with_single ~db (fun single ->
      let oracle = single req in
      check int_ "single node: 5 rows" 5 (rows oracle);
      check bool_ "single node: limit field" true
        (Json.member "limit" oracle = Some (Json.Int 5));
      with_cluster ~db 2 (fun c ->
          let coord = Dist.Coordinator.create ~source:"test" c.map in
          List.iter
            (fun what ->
              let merged = Dist.Coordinator.handle coord req in
              check string_ what
                (Json.to_string (strip oracle))
                (Json.to_string (strip merged));
              check bool_ (what ^ ": limit field") true
                (Json.member "limit" merged = Some (Json.Int 5)))
            [ "2 shards"; "2 shards, cached" ];
          Dist.Client.close (Dist.Coordinator.client coord)))

(* ------------------------------------------------------------------ *)
(* Failure handling *)

let test_replica_failover () =
  with_single (fun single ->
      with_cluster ~replicas:2 2 (fun c ->
          let coord = Dist.Coordinator.create ~source:"test" c.map in
          let req = parse_exn {|{"op":"ranked","terms":["pxone","pxtwo"],"k":5}|} in
          let expected = Json.to_string (strip (single req)) in
          check string_ "baseline" expected
            (Json.to_string (strip (Dist.Coordinator.handle coord req)));
          (* kill shard 0's primary: the coordinator must fail over to
             the surviving replica and keep answering exactly, with no
             degraded flag *)
          Service.Server.stop c.servers.(0).(0);
          let response = Dist.Coordinator.handle coord req in
          check string_ "failover answer" expected
            (Json.to_string (strip response));
          check bool_ "not degraded" true
            (Json.member "degraded" response = None);
          check int_ "no degraded responses served" 0
            (Dist.Coordinator.degraded_served coord);
          (* and the failover sticks: further requests are exact *)
          let req2 = parse_exn {|{"op":"search","terms":["pxone"],"k":8}|} in
          check string_ "post-failover search"
            (Json.to_string (strip (single req2)))
            (Json.to_string (strip (Dist.Coordinator.handle coord req2)));
          Dist.Client.close (Dist.Coordinator.client coord)))

let test_degraded_and_unavailable () =
  with_cluster 2 (fun c ->
      let client =
        Dist.Client.create ~connect_timeout:0.5 ~request_timeout:5.0
          ~retries:0 ~backoff:0. ()
      in
      let coord = Dist.Coordinator.create ~client ~source:"test" c.map in
      let req = parse_exn {|{"op":"search","terms":["pxone"],"k":50}|} in
      let full = Dist.Coordinator.handle coord req in
      check bool_ "healthy: ok" true (response_ok full);
      check bool_ "healthy: no flag" true (Json.member "degraded" full = None);
      (* kill shard 1 (its only replica): answers degrade to shard 0's
         documents but stay well-formed and flagged *)
      Service.Server.stop c.servers.(1).(0);
      let degraded = Dist.Coordinator.handle coord req in
      check bool_ "degraded: ok" true (response_ok degraded);
      check bool_ "degraded: flagged" true
        (Json.member "degraded" degraded = Some (Json.Bool true));
      check bool_ "degraded: names the shard" true
        (Json.member "shards_unavailable" degraded
        = Some (Json.List [ Json.Int 1 ]));
      (* every surviving row belongs to shard 0's range *)
      (match Json.member "results" degraded with
      | Some (Json.List rows) ->
        check bool_ "rows exist" true (rows <> []);
        let hi = (Dist.Shard_map.shard c.map 0).Dist.Shard_map.hi in
        List.iter
          (fun row ->
            match Option.bind (Json.member "doc" row) Json.to_int_opt with
            | Some d -> check bool_ "doc in shard 0" true (d < hi)
            | None -> Alcotest.fail "row lacks doc")
          rows
      | _ -> Alcotest.fail "no results");
      check bool_ "counted" true (Dist.Coordinator.degraded_served coord > 0);
      (* health reflects the outage *)
      let health = Dist.Coordinator.handle coord Protocol.Health in
      (match Json.member "shards" health with
      | Some shards ->
        check bool_ "health: degraded" true
          (Json.member "degraded" shards = Some (Json.Bool true))
      | None -> Alcotest.fail "health lacks shards");
      (* kill the rest: a typed unavailable error, never a crash *)
      Service.Server.stop c.servers.(0).(0);
      let dead = Dist.Coordinator.handle coord req in
      check bool_ "all down: not ok" true (not (response_ok dead));
      (match Option.bind (Json.member "error" dead) (Json.member "code") with
      | Some (Json.String "unavailable") -> ()
      | _ -> Alcotest.fail "expected code unavailable");
      Dist.Client.close client)

let test_torn_connection_retry () =
  let served = Atomic.make 0 in
  let handler _req =
    Atomic.incr served;
    Json.Obj [ ("ok", Json.Bool true); ("n", Json.Int (Atomic.get served)) ]
  in
  let server = Service.Server.start_handler ~name:"stub" handler in
  let port = Service.Server.port server in
  let endpoint = { Dist.Shard_map.host = "127.0.0.1"; port } in
  let client = Dist.Client.create ~retries:2 ~backoff:0.01 () in
  let ask () = Dist.Client.request client endpoint (Json.Obj [ ("op", Json.String "health") ]) in
  (match ask () with
  | Ok r -> check bool_ "first request" true (response_ok r)
  | Error e -> Alcotest.failf "first request: %s" (Dist.Client.error_message e));
  (* restart the server on the same port: the pooled connection is
     torn, the retry must dial fresh and succeed transparently *)
  Service.Server.stop server;
  let server2 = Service.Server.start_handler ~name:"stub" ~port handler in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop server2)
    (fun () ->
      (match ask () with
      | Ok r -> check bool_ "survives restart" true (response_ok r)
      | Error e ->
        Alcotest.failf "after restart: %s" (Dist.Client.error_message e));
      check bool_ "reconnect counted" true (Dist.Client.reconnects client > 0);
      Dist.Client.close client)

let test_client_timeout () =
  let handler _req =
    Thread.delay 0.5;
    Json.Obj [ ("ok", Json.Bool true) ]
  in
  let server = Service.Server.start_handler ~name:"slow" handler in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop server)
    (fun () ->
      let client =
        Dist.Client.create ~request_timeout:0.1 ~retries:0 ~backoff:0. ()
      in
      let endpoint =
        { Dist.Shard_map.host = "127.0.0.1"; port = Service.Server.port server }
      in
      match
        Dist.Client.request client endpoint
          (Json.Obj [ ("op", Json.String "health") ])
      with
      | Error (Dist.Client.Timeout _) -> Dist.Client.close client
      | Error e ->
        Alcotest.failf "expected timeout, got %s" (Dist.Client.error_message e)
      | Ok _ -> Alcotest.fail "expected timeout, got a response")

(* ------------------------------------------------------------------ *)
(* Aggregated ops and prepared statements *)

let test_health_stats_prepare () =
  with_single (fun single ->
      with_cluster 2 (fun c ->
          let coord = Dist.Coordinator.create ~source:"m.json" c.map in
          let health = Dist.Coordinator.handle coord Protocol.Health in
          check bool_ "health ok" true (response_ok health);
          check bool_ "health source" true
            (Json.member "source" health = Some (Json.String "m.json"));
          (match Json.member "shards" health with
          | Some shards ->
            check bool_ "all reachable" true
              (Json.member "unreachable" shards = Some (Json.Int 0))
          | None -> Alcotest.fail "health lacks shards");
          let stats = Dist.Coordinator.handle coord Protocol.Stats in
          check bool_ "stats ok" true (response_ok stats);
          (match Json.member "coordinator" stats with
          | Some co ->
            check bool_ "stats shard count" true
              (Json.member "shards" co = Some (Json.Int 2))
          | None -> Alcotest.fail "stats lacks coordinator");
          (* prepare on the coordinator, execute scatters the text *)
          (match
             Dist.Coordinator.handle coord (Protocol.Prepare { q = engine_query })
           with
          | Json.Obj _ as r -> begin
            check bool_ "prepare ok" true (response_ok r);
            match Option.bind (Json.member "id" r) Json.to_int_opt with
            | Some id ->
              (* two spellings of one query share a statement, as on
                 tixd *)
              let respelled =
                String.concat " "
                  (List.filter (( <> ) "")
                     (String.split_on_char ' '
                        (String.map
                           (function '\n' -> ' ' | ch -> ch)
                           engine_query)))
              in
              check bool_ "re-prepare returns the same id" true
                (Option.bind
                   (Json.member "id"
                      (Dist.Coordinator.handle coord
                         (Protocol.Prepare { q = respelled })))
                   Json.to_int_opt
                = Some id);
              let exec_req =
                parse_exn
                  (Printf.sprintf {|{"op":"execute","id":%d,"k":6}|} id)
              in
              let single_q =
                parse_exn
                  (Printf.sprintf {|{"op":"query","q":%s,"mode":"engine","k":6}|}
                     (quote engine_query))
              in
              check string_ "execute = single-node query"
                (Json.to_string (strip (single single_q)))
                (Json.to_string
                   (strip (Dist.Coordinator.handle coord exec_req)))
            | None -> Alcotest.fail "prepare returned no id"
          end
          | _ -> Alcotest.fail "prepare: not an object");
          (* unknown statement: typed error *)
          (match
             Dist.Coordinator.handle coord
               (parse_exn {|{"op":"execute","id":99}|})
           with
          | r ->
            check bool_ "unknown statement refused" true (not (response_ok r)));
          (* mutations are refused *)
          (match
             Dist.Coordinator.handle coord
               (parse_exn {|{"op":"insert","name":"x.xml","xml":"<a/>"}|})
           with
          | r -> check bool_ "read only" true (not (response_ok r)));
          Dist.Client.close (Dist.Coordinator.client coord)))

(* a query outside the compilable fragment is refused by tixd and by
   the coordinator, which validates through a shard's explain, with
   one error object *)
let test_prepare_not_compilable () =
  let req =
    Protocol.Prepare { q = {|for $a in document("*")//article return <r>{$a}</r>|} }
  in
  with_single (fun single ->
      with_cluster 2 (fun c ->
          let coord = Dist.Coordinator.create ~source:"test" c.map in
          let expected = single req in
          check bool_ "tixd refuses" false (response_ok expected);
          check string_ "coordinator error = tixd error"
            (Json.to_string expected)
            (Json.to_string (Dist.Coordinator.handle coord req));
          Dist.Client.close (Dist.Coordinator.client coord)))

(* traced distributed queries graft each shard's span tree under one
   Scatter root *)
let test_trace_grafting () =
  with_cluster 2 (fun c ->
      let coord = Dist.Coordinator.create ~source:"test" c.map in
      let req =
        parse_exn {|{"op":"search","terms":["pxone"],"k":5,"trace":true}|}
      in
      let response = Dist.Coordinator.handle coord req in
      check bool_ "ok" true (response_ok response);
      (match Json.member "trace" response with
      | Some trace ->
        check bool_ "root is Scatter" true
          (Json.member "op" trace = Some (Json.String "Scatter"));
        (match Json.member "children" trace with
        | Some (Json.List children) ->
          check int_ "one child per shard" 2 (List.length children);
          List.iter
            (fun child ->
              check bool_ "child is Shard" true
                (Json.member "op" child = Some (Json.String "Shard"));
              check bool_ "shard has sub-spans" true
                (Json.member "children" child <> None))
            children
        | _ -> Alcotest.fail "Scatter has no children")
      | None -> Alcotest.fail "traced response lacks trace");
      Dist.Client.close (Dist.Coordinator.client coord))

let () =
  ignore (doc_count ());
  let tc = Alcotest.test_case in
  Alcotest.run "dist"
    [
      ( "shard_map",
        [
          tc "ranges" `Quick test_ranges;
          tc "invariants" `Quick test_manifest_invariants;
          tc "json roundtrip" `Quick test_manifest_roundtrip;
        ] );
      ( "coordinator",
        [
          tc "matches single node (2 and 4 shards)" `Quick
            test_matches_single_node;
          tc "result cap spans shards" `Quick test_result_cap_spans_shards;
          tc "ranked theta windows" `Quick test_ranked_window_relay;
          tc "row limit is a field, not plan text" `Quick test_limit_field;
          tc "trace grafting" `Quick test_trace_grafting;
          tc "health, stats, prepare" `Quick test_health_stats_prepare;
          tc "prepare refusal matches single node" `Quick
            test_prepare_not_compilable;
        ] );
      ( "failure",
        [
          tc "replica failover" `Quick test_replica_failover;
          tc "degraded and unavailable" `Quick test_degraded_and_unavailable;
          tc "torn connection retry" `Quick test_torn_connection_retry;
          tc "client timeout" `Quick test_client_timeout;
        ] );
    ]
