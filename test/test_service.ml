(* Service-layer tests: JSON codec, LRU caches, engine snapshot
   execution, the domain worker pool (multi-domain determinism,
   backpressure, cache invalidation on reload) and the TCP server. *)

module Lru = Service.Lru

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Corpus: planted terms at known frequencies, deterministic seed. *)

let cfg =
  {
    Workload.Corpus.articles = 24;
    seed = 7;
    chapters_per_article = 2;
    sections_per_chapter = 2;
    paragraphs_per_section = 3;
    words_per_paragraph = 18;
    vocabulary = 300;
    planted_terms = [ ("svplantone", 60); ("svplanttwo", 25) ];
    planted_phrases = [ ("svphrasea", "svphraseb", 12) ];
  }

let db =
  lazy
    (let options = { Store.Db.default_options with keep_trees = false } in
     Store.Db.load ~options (Workload.Corpus.generate cfg))

let snapshot =
  lazy
    (match Service.Engine.of_db (Lazy.force db) with
    | Ok s -> s
    | Error msg -> Alcotest.failf "of_db: %s" msg)

let compilable_query =
  {|
  for $a in document("*")//article/descendant-or-self::*
  score $a using ScoreFoo($a, {"svplantone"}, {"svplanttwo"})
  return <r>{$a}</r>
  sortby(score)
  threshold $a/@score > 0 stop after 10
  |}

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let v =
    Service.Json.(
      Obj
        [
          ("s", String "a\"b\\c\nd\te");
          ("i", Int (-42));
          ("f", Float 1.5);
          ("z", Float 3.0);
          ("b", Bool true);
          ("n", Null);
          ("l", List [ Int 1; String "x"; Obj [ ("k", Bool false) ] ]);
        ])
  in
  let s = Service.Json.to_string v in
  match Service.Json.parse s with
  | Ok v' -> check bool_ "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse: %s" e

let test_json_parse_basics () =
  let ok s v =
    match Service.Json.parse s with
    | Ok got -> check bool_ (Printf.sprintf "parse %s" s) true (got = v)
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  ok "17" (Service.Json.Int 17);
  ok "-2.5e2" (Service.Json.Float (-250.));
  ok "\"\\u0041\\u00e9\"" (Service.Json.String "A\xc3\xa9");
  ok "[]" (Service.Json.List []);
  ok "{}" (Service.Json.Obj []);
  ok "  {\"a\" : [1, 2]} " (Service.Json.Obj [ ("a", Service.Json.List [ Service.Json.Int 1; Service.Json.Int 2 ]) ]);
  (match Service.Json.parse "{\"a\":1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted");
  match Service.Json.parse "[1,2] junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing junk accepted"

let test_json_bad_unicode_escape () =
  (* a \u escape takes exactly four hex digits; anything else is a
     typed error, never an exception out of the parser *)
  List.iter
    (fun s ->
      match Service.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s
      | exception e ->
        Alcotest.failf "%S raised %s" s (Printexc.to_string e))
    [ {|"\uzzzz"|}; {|"\u12g4"|}; {|"\u1_23"|}; {|"\u-123"|}; {|"\u12"|};
      {|"\ud83d\uzzzz"|}; {|{"op":"\uzzzz"}|} ];
  match Service.Protocol.parse_request {|{"op":"\uzzzz"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request with a bad escape accepted"

let test_json_depth_cap () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  (match Service.Json.parse (nested 200) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "200 levels rejected: %s" e);
  let deep_obj =
    String.concat "" (List.init 300 (fun _ -> {|{"a":|})) ^ "1"
    ^ String.make 300 '}'
  in
  List.iter
    (fun s ->
      match Service.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "nesting past the cap accepted")
    [ nested 300; deep_obj; String.make 1_000_000 '[' ]

(* Floats cross the wire exactly: the text parses back to the same
   bits, including near-ties that 12 digits would merge
   (2.9999999999999996 vs 3) and integral values past 1e15. *)
let test_json_float_roundtrip =
  let roundtrips f =
    match Service.Json.parse (Service.Json.to_string (Service.Json.Float f)) with
    | Ok (Service.Json.Float f') -> Int64.bits_of_float f' = Int64.bits_of_float f
    | Ok _ | Error _ -> false
  in
  QCheck.Test.make ~count:2000 ~name:"json float roundtrip"
    QCheck.(
      oneof
        [
          float;
          map Int64.float_of_bits int64;
          oneofl
            [
              2.9999999999999996; 3.0; -0.0; 0.1; 1e15; 1234567890123456.;
              1e16 +. 2.; 5e-324; Float.max_float; -1e-7;
            ];
        ])
    (fun f ->
      QCheck.assume (Float.is_finite f);
      roundtrips f)

let test_json_escaped_output_parses () =
  let v = Service.Json.String "line\nwith \"quotes\" and \x01 control" in
  match Service.Json.parse (Service.Json.to_string v) with
  | Ok v' -> check bool_ "escape roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse: %s" e

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  check bool_ "miss" true (Lru.find c "a" = None);
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check bool_ "hit a" true (Lru.find c "a" = Some 1);
  (* b is now least recent; adding c evicts it *)
  Lru.add c "c" 3;
  check bool_ "b evicted" true (Lru.find c "b" = None);
  check bool_ "a kept" true (Lru.find c "a" = Some 1);
  check bool_ "c kept" true (Lru.find c "c" = Some 3);
  let s = Lru.stats c in
  check int_ "entries" 2 s.Lru.entries;
  check int_ "evictions" 1 s.Lru.evictions;
  check int_ "hits" 3 s.Lru.hits;
  check int_ "misses" 2 s.Lru.misses

let test_lru_replace_and_clear () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 9;
  check bool_ "replaced" true (Lru.find c "a" = Some 9);
  check int_ "one entry" 1 (Lru.stats c).Lru.entries;
  Lru.clear c;
  check int_ "cleared" 0 (Lru.stats c).Lru.entries;
  check bool_ "gone" true (Lru.find c "a" = None)

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  check bool_ "never stores" true (Lru.find c "a" = None)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics () =
  let c = Service.Metrics.counter "test.counter" in
  let v0 = Service.Metrics.counter_value c in
  Service.Metrics.incr c;
  Service.Metrics.add c 4;
  check int_ "counter" (v0 + 5) (Service.Metrics.counter_value c);
  let h = Service.Metrics.histogram "test.hist" in
  let n0 = Service.Metrics.hist_count h in
  List.iter (fun ns -> Service.Metrics.observe_ns h ns) [ 100; 200; 400; 100_000 ];
  check int_ "hist count" (n0 + 4) (Service.Metrics.hist_count h);
  let p50 = Service.Metrics.quantile_ns h 0.5 in
  check bool_ "p50 sane" true (p50 > 32. && p50 < 10_000.);
  let p99 = Service.Metrics.quantile_ns h 0.99 in
  check bool_ "p99 in top bucket" true (p99 > 32_768. && p99 < 524_288.);
  check bool_ "dump mentions both" true
    (let d = Service.Metrics.dump () in
     let has needle =
       let rec go i =
         i + String.length needle <= String.length d
         && (String.sub d i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     has "test.counter" && has "test.hist")

(* bucketing agrees with a reference implementation, in particular at
   power-of-two boundaries where the old Float.log2 path misbucketed *)
let test_metrics_bucketing_property () =
  (* reference: linear scan for the bucket whose [lo, hi) holds ns *)
  let reference ns =
    if ns <= 1 then 0
    else begin
      let rec go i =
        if i = 39 then 39
        else if ns lsr (i + 1) = 0 then i
        else go (i + 1)
      in
      go 0
    end
  in
  let boundaries =
    List.concat_map
      (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
      (List.init 61 (fun k -> k + 1))
  in
  List.iter
    (fun ns ->
      check int_
        (Printf.sprintf "bucket_of_ns %d" ns)
        (reference ns)
        (Service.Metrics.bucket_of_ns ns))
    ([ 0; 1; 2; 3 ] @ boundaries);
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"bucket_of_ns matches reference"
       QCheck.(map abs (small_int_corners ()))
       (fun ns -> Service.Metrics.bucket_of_ns ns = reference ns))

let test_metrics_observe_s_rounds () =
  let h = Service.Metrics.histogram "test.hist.rounding" in
  let n0 = Service.Metrics.hist_count h in
  (* 0.9 ns was truncated to 0 before the fix; rounding keeps the
     nanosecond, observable through the mean *)
  Service.Metrics.observe_s h 0.9e-9;
  check int_ "observed" (n0 + 1) (Service.Metrics.hist_count h);
  check bool_ "sub-ns observation rounds to 1 ns" true
    (Service.Metrics.mean_ns h >= 1.);
  (* and 1999.6 ns rounds up across the bucket boundary to 2000 *)
  Service.Metrics.observe_s h 1999.6e-9;
  check bool_ "mean reflects rounded 2000" true
    (Service.Metrics.mean_ns h >= 1000.)

(* ------------------------------------------------------------------ *)
(* Lru edge cases *)

let test_lru_add_existing_refreshes () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* re-adding [a] must make it most recent: [c] then evicts [b] *)
  Lru.add c "a" 10;
  Lru.add c "c" 3;
  check bool_ "a survived" true (Lru.find c "a" = Some 10);
  check bool_ "b evicted" true (Lru.find c "b" = None);
  check bool_ "c present" true (Lru.find c "c" = Some 3);
  check int_ "one eviction" 1 (Lru.stats c).Lru.evictions

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Lru.add c "a" 1;
  check bool_ "a in" true (Lru.find c "a" = Some 1);
  Lru.add c "b" 2;
  check bool_ "a evicted" true (Lru.find c "a" = None);
  check bool_ "b in" true (Lru.find c "b" = Some 2);
  (* replacing the sole entry must not evict *)
  Lru.add c "b" 9;
  check bool_ "b replaced" true (Lru.find c "b" = Some 9);
  let s = Lru.stats c in
  check int_ "entries" 1 s.Lru.entries;
  check int_ "evictions" 1 s.Lru.evictions

let test_lru_capacity_zero_stats () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check bool_ "nothing stored" true (Lru.find c "a" = None && Lru.find c "b" = None);
  let s = Lru.stats c in
  check int_ "no entries" 0 s.Lru.entries;
  check int_ "no evictions" 0 s.Lru.evictions;
  check int_ "finds all missed" 2 s.Lru.misses

let test_lru_concurrent_stats () =
  let c = Lru.create ~capacity:8 in
  let domains = 4 and per_domain = 500 in
  let work d () =
    for i = 0 to per_domain - 1 do
      let key = Printf.sprintf "k%d" ((i + d) mod 16) in
      (match Lru.find c key with
      | Some _ -> ()
      | None -> Lru.add c key i);
      ignore (Lru.stats c)
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join ds;
  let s = Lru.stats c in
  (* every find recorded exactly one hit or miss *)
  check int_ "hits + misses = finds" (domains * per_domain)
    (s.Lru.hits + s.Lru.misses);
  check bool_ "within capacity" true (s.Lru.entries <= 8)

(* ------------------------------------------------------------------ *)
(* Cache keys *)

let qkey q =
  Service.Engine.canonical_key (Service.Engine.Query { q; mode = `Engine })

let test_cache_key_merges_equal_tokenizations () =
  (* whitespace outside literals collapses *)
  check string_ "whitespace variants"
    (qkey "for $a in document(\"*\")//a  return   $a")
    (qkey "for $a in\n\tdocument(\"*\")//a return $a");
  (* the lexer keeps only literal content: quote style is irrelevant *)
  check string_ "quote style"
    (qkey {|score $a using ScoreFoo($a, {"xy z"}, {})|})
    (qkey {|score $a using ScoreFoo($a, {'xy z'}, {})|})

let test_cache_key_separates_distinct_tokenizations () =
  let distinct name a b =
    check bool_ name true (not (String.equal (qkey a) (qkey b)))
  in
  (* whitespace inside literals is significant *)
  distinct "literal internal spacing"
    {|score $a using ScoreFoo($a, {"x y"}, {})|}
    {|score $a using ScoreFoo($a, {"x  y"}, {})|};
  (* a single-quoted literal containing a double quote keeps its
     spelling; it must not collide with nearby double-quoted forms *)
  distinct "embedded quote"
    {|//a[b = 'say "hi"']|}
    {|//a[b = "say hi"]|};
  (* unterminated literals are lex errors; their tails stay verbatim
     so distinct erroneous queries never share a key *)
  distinct "unterminated tails differ"
    {|//a[b = "unterminated x|}
    {|//a[b = "unterminated y|};
  distinct "unterminated whitespace significant"
    {|//a[b = "unterminated  x|}
    {|//a[b = "unterminated x|}

let test_cache_key_unterminated_whitespace_before_quote () =
  (* whitespace before the unterminated quote still collapses; only
     the (error) literal itself is verbatim *)
  check string_ "prefix still normalizes"
    (qkey "//a  [b =  \"oops")
    (qkey "//a [b = \"oops")

(* ------------------------------------------------------------------ *)
(* Engine *)

let encode result =
  Service.Json.to_string
    (Service.Protocol.result_to_json ~include_timings:false result)

let exec ?caches ?limits ?k ?trace request =
  Service.Engine.exec ?caches ?limits ?k ?trace (Lazy.force snapshot) request

let test_engine_search_matches_direct () =
  let terms = [ "svplantone" ] in
  match
    exec (Service.Engine.Search { terms; method_ = Service.Engine.Termjoin; complex = false; anchor = None })
  with
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  | Ok result ->
    let direct =
      Access.Term_join.to_list ~mode:Access.Counter_scoring.Simple
        (Lazy.force snapshot).Service.Engine.ctx ~terms
      |> List.sort Access.Scored_node.compare_score_desc
    in
    check int_ "same cardinality" (List.length direct) result.Service.Engine.total;
    List.iter2
      (fun (row : Service.Engine.row) (node : Access.Scored_node.t) ->
        check int_ "doc" node.doc row.Service.Engine.doc;
        check int_ "start" node.start row.Service.Engine.start;
        check bool_ "score" true (Float.equal node.score row.Service.Engine.score))
      result.Service.Engine.rows direct

let test_engine_query_compiles () =
  match exec (Service.Engine.Query { q = compilable_query; mode = `Engine }) with
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  | Ok result ->
    check bool_ "has plan" true (result.Service.Engine.plan <> None);
    check bool_ "has rows" true (result.Service.Engine.rows <> [])

let test_engine_bad_requests () =
  (match exec (Service.Engine.Search { terms = []; method_ = Service.Engine.Termjoin; complex = false; anchor = None }) with
  | Error e -> check string_ "code" "bad_request" (Service.Engine.error_code e)
  | Ok _ -> Alcotest.fail "empty search accepted");
  (match exec (Service.Engine.Phrase { phrase = "   "; comp3 = false }) with
  | Error e -> check string_ "code" "bad_request" (Service.Engine.error_code e)
  | Ok _ -> Alcotest.fail "empty phrase accepted");
  match exec (Service.Engine.Query { q = "for $a in"; mode = `Engine }) with
  | Error e -> check string_ "code" "parse_error" (Service.Engine.error_code e)
  | Ok _ -> Alcotest.fail "bad query accepted"

let test_engine_governor () =
  match
    exec
      ~limits:(Core.Governor.limits ~max_results:1 ())
      (Service.Engine.Search
         { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin; complex = false; anchor = None })
  with
  | Error e -> check string_ "code" "exhausted" (Service.Engine.error_code e)
  | Ok _ -> Alcotest.fail "expected resource exhaustion"

let fresh_caches () =
  {
    Service.Engine.plans = Lru.create ~capacity:16;
    results = Lru.create ~capacity:16;
  }

let test_engine_result_cache () =
  let caches = fresh_caches () in
  let request =
    Service.Engine.Search
      { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin; complex = false; anchor = None }
  in
  let r1 =
    match exec ~caches ~k:5 request with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  check bool_ "first is uncached" false r1.Service.Engine.cached;
  let r2 =
    match exec ~caches ~k:5 request with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  check bool_ "second is cached" true r2.Service.Engine.cached;
  check string_ "identical rows"
    (Service.Json.to_string (Service.Protocol.rows_to_json r1.Service.Engine.rows))
    (Service.Json.to_string (Service.Protocol.rows_to_json r2.Service.Engine.rows));
  check int_ "one hit" 1 (Lru.stats caches.Service.Engine.results).Lru.hits;
  (* a different k is a different entry *)
  (match exec ~caches ~k:3 request with
  | Ok r -> check bool_ "k=3 not cached" false r.Service.Engine.cached
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e));
  check int_ "two entries" 2 (Lru.stats caches.Service.Engine.results).Lru.entries

(* A cached entry answers only requests under the limits it ran
   with: with an empty cache and with an unlimited run's entry cached,
   a request under a step or result cap gets the same verdict. *)
let test_result_cache_honours_limits () =
  let request =
    Service.Engine.Search
      { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin;
        complex = false; anchor = None }
  in
  let verdict ?limits caches =
    match exec ~caches ?limits ~k:3 request with
    | Ok r -> Printf.sprintf "ok, total %d" r.Service.Engine.total
    | Error e -> Service.Engine.error_code e
  in
  let total =
    match exec ~k:3 request with
    | Ok r -> r.Service.Engine.total
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  List.iter
    (fun (what, limits) ->
      let cold = verdict ~limits (fresh_caches ()) in
      check string_ (what ^ ": empty cache") "exhausted" cold;
      let caches = fresh_caches () in
      ignore (verdict caches : string);
      check string_ (what ^ ": unlimited entry cached") cold
        (verdict ~limits caches))
    [
      ( Printf.sprintf "max_results %d" (total - 1),
        Core.Governor.limits ~max_results:(total - 1) () );
      ("max_steps 5", Core.Governor.limits ~max_steps:5 ());
    ]

let test_engine_plan_cache () =
  let caches = fresh_caches () in
  let run () =
    match
      exec ~caches (Service.Engine.Query { q = compilable_query; mode = `Engine })
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  let r1 = run () in
  check int_ "plan cached" 1 (Lru.stats caches.Service.Engine.plans).Lru.entries;
  (* second run must hit the plan cache (the result cache also hits;
     disable it to prove the plan path alone) *)
  Lru.clear caches.Service.Engine.results;
  let before = (Lru.stats caches.Service.Engine.plans).Lru.hits in
  let r2 = run () in
  check int_ "plan hit" (before + 1) (Lru.stats caches.Service.Engine.plans).Lru.hits;
  check bool_ "recomputed, not served from result cache" false
    r2.Service.Engine.cached;
  check string_ "same rows"
    (Service.Json.to_string (Service.Protocol.rows_to_json r1.Service.Engine.rows))
    (Service.Json.to_string (Service.Protocol.rows_to_json r2.Service.Engine.rows));
  (* whitespace-insensitive keying outside literals *)
  let squashed =
    String.concat " "
      (String.split_on_char '\n' compilable_query
      |> List.map String.trim
      |> List.filter (fun s -> s <> ""))
  in
  (* the two spellings share one canonical key, so with the result
     cache live the squashed spelling is answered from it outright *)
  (match exec ~caches (Service.Engine.Query { q = squashed; mode = `Engine }) with
  | Ok r -> check bool_ "squashed hits result cache" true r.Service.Engine.cached
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e));
  Lru.clear caches.Service.Engine.results;
  let before = (Lru.stats caches.Service.Engine.plans).Lru.hits in
  (match
     exec ~caches (Service.Engine.Query { q = squashed; mode = `Engine })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e));
  check int_ "normalized spelling hits too" (before + 1)
    (Lru.stats caches.Service.Engine.plans).Lru.hits

(* ------------------------------------------------------------------ *)
(* Tracing (EXPLAIN ANALYZE) *)

let span_names sp =
  let names = ref [] in
  Core.Trace.iter_span (fun s -> names := s.Core.Trace.name :: !names) sp;
  List.rev !names

let exec_traced request =
  match
    Service.Engine.exec ~trace:true (Lazy.force snapshot) request
  with
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  | Ok r -> begin
    match r.Service.Engine.trace with
    | Some sp -> (r, sp)
    | None -> Alcotest.fail "traced request returned no span tree"
  end

(* every access-method family reports spans with cardinalities *)
let test_trace_all_families () =
  let expect_root request root =
    let r, sp = exec_traced request in
    check string_ (root ^ " root") root sp.Core.Trace.name;
    check bool_ (root ^ " output known") true (sp.Core.Trace.output >= 0);
    check bool_ (root ^ " elapsed") true (sp.Core.Trace.elapsed_ns >= 0);
    check int_ (root ^ " output = total") r.Service.Engine.total
      sp.Core.Trace.output
  in
  expect_root
    (Service.Engine.Search
       { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin; complex = false; anchor = None })
    "TermJoin";
  expect_root
    (Service.Engine.Search
       { terms = [ "svplantone" ]; method_ = Service.Engine.Genmeet; complex = false; anchor = None })
    "GenMeet";
  expect_root
    (Service.Engine.Search
       { terms = [ "svplantone" ]; method_ = Service.Engine.Comp1; complex = false; anchor = None })
    "Comp1";
  expect_root
    (Service.Engine.Phrase { phrase = "svphrasea svphraseb"; comp3 = false })
    "PhraseFinder";
  expect_root
    (Service.Engine.Phrase { phrase = "svphrasea svphraseb"; comp3 = true })
    "Comp3";
  (* ranked rows are per-document, total counts kept rows *)
  let _, sp = exec_traced (Service.Engine.Ranked { terms = [ "svplantone" ] }) in
  check string_ "ranked root" "RankedTopK" sp.Core.Trace.name;
  (* the compiled query nests access-method spans under CompiledQuery *)
  let _, sp =
    exec_traced (Service.Engine.Query { q = compilable_query; mode = `Engine })
  in
  check string_ "query root" "CompiledQuery" sp.Core.Trace.name;
  let names = span_names sp in
  List.iter
    (fun expected ->
      check bool_ (expected ^ " nested") true (List.mem expected names))
    [ "PatternMatch"; "TermJoin"; "Threshold"; "Rank"; "Limit" ]

(* the interpreter path records Eval clause spans *)
let test_trace_interpreter () =
  let options = { Store.Db.default_options with keep_trees = true } in
  let db = Store.Db.load ~options (Workload.Corpus.generate cfg) in
  let snap =
    match Service.Engine.of_db db with
    | Ok s -> s
    | Error msg -> Alcotest.failf "of_db: %s" msg
  in
  match
    Service.Engine.exec ~trace:true snap
      (Service.Engine.Query { q = compilable_query; mode = `Interp })
  with
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  | Ok r -> begin
    match r.Service.Engine.trace with
    | None -> Alcotest.fail "no span tree"
    | Some sp ->
      check string_ "root" "Eval" sp.Core.Trace.name;
      let names = span_names sp in
      check bool_ "has a For clause span" true
        (List.exists
           (fun n -> String.length n >= 3 && String.sub n 0 3 = "For")
           names)
  end

(* traced requests bypass the result cache in both directions *)
let test_trace_bypasses_cache () =
  let caches = fresh_caches () in
  let request =
    Service.Engine.Search
      { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin; complex = false; anchor = None }
  in
  let run ?(trace = false) () =
    match exec ~caches ~k:5 ~trace request with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  let r1 = run () in
  check bool_ "first uncached" false r1.Service.Engine.cached;
  check bool_ "untraced has no spans" true (r1.Service.Engine.trace = None);
  let r2 = run ~trace:true () in
  check bool_ "traced run is recomputed" false r2.Service.Engine.cached;
  check bool_ "traced run has spans" true (r2.Service.Engine.trace <> None);
  let r3 = run () in
  check bool_ "untraced still served from cache" true r3.Service.Engine.cached

let test_engine_explain () =
  (match Service.Engine.explain compilable_query with
  | Ok plan ->
    check bool_ "plan mentions terms" true
      (let has needle hay =
         let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0
       in
       has "svplantone" plan)
  | Error e -> Alcotest.failf "explain: %s" (Service.Engine.error_message e));
  (match Service.Engine.explain "for $a in" with
  | Error e -> check string_ "parse error" "parse_error" (Service.Engine.error_code e)
  | Ok _ -> Alcotest.fail "bad query explained");
  (* a plan-cache-backed explain also fills the cache *)
  let caches = fresh_caches () in
  (match Service.Engine.explain ~caches compilable_query with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "explain: %s" (Service.Engine.error_message e));
  check int_ "plan cached" 1 (Lru.stats caches.Service.Engine.plans).Lru.entries

let has_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let fresh_snapshot () =
  match Service.Engine.of_db (Lazy.force db) with
  | Ok s -> s
  | Error msg -> Alcotest.failf "of_db: %s" msg

let test_search_auto () =
  (* the auto method resolves through the planner, reports its
     decision in the plan field and returns exactly the rows of the
     explicit methods *)
  let snap = fresh_snapshot () in
  let terms = [ "svplantone"; "svplanttwo" ] in
  let run method_ =
    match
      Service.Engine.exec snap (Service.Engine.Search { terms; method_; complex = false; anchor = None })
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  let auto = run Service.Engine.Auto in
  let tj = run Service.Engine.Termjoin in
  check string_ "auto rows = termjoin rows"
    (Service.Json.to_string (Service.Protocol.rows_to_json tj.Service.Engine.rows))
    (Service.Json.to_string (Service.Protocol.rows_to_json auto.Service.Engine.rows));
  (match auto.Service.Engine.plan with
  | Some p ->
    check bool_ "plan reports the decision" true (has_sub "planner: " p);
    check bool_ "plan reports a cost" true (has_sub "cost=" p)
  | None -> Alcotest.fail "auto search has no plan");
  check bool_ "auto roundtrips as a string" true
    (Service.Engine.search_method_of_string "auto" = Some Service.Engine.Auto)

let test_explain_costed () =
  (* with a snapshot, EXPLAIN prices the access methods and prints
     the chosen one with its row estimate and alternatives *)
  let snap = fresh_snapshot () in
  (match Service.Engine.explain ~snapshot:snap compilable_query with
  | Ok text ->
    check bool_ "mentions the access method" true (has_sub "access: " text);
    check bool_ "marks the choice as costed" true (has_sub "(costed)" text);
    check bool_ "prints the estimate" true (has_sub "estimate: " text);
    check bool_ "prints the cost table" true (has_sub "cost=" text)
  | Error e -> Alcotest.failf "explain: %s" (Service.Engine.error_message e));
  (* without a snapshot only the static rule is shown *)
  match Service.Engine.explain compilable_query with
  | Ok text ->
    check bool_ "static rule marked" true (has_sub "(static rule)" text);
    check bool_ "no estimate without stats" false (has_sub "estimate: " text)
  | Error e -> Alcotest.failf "explain: %s" (Service.Engine.error_message e)

let test_trace_estimates () =
  (* EXPLAIN ANALYZE: the access operator's span carries the
     planner's row estimate next to the actual cardinality, and the
     estimate survives the JSON protocol encoding *)
  let snap = fresh_snapshot () in
  let r =
    match
      Service.Engine.exec ~trace:true snap
        (Service.Engine.Search
           { terms = [ "svplantone" ]; method_ = Service.Engine.Auto; complex = false; anchor = None })
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  let sp =
    match r.Service.Engine.trace with
    | Some sp -> sp
    | None -> Alcotest.fail "no span tree"
  in
  let estimated = ref [] in
  Core.Trace.iter_span
    (fun s -> if s.Core.Trace.est >= 0 then estimated := s :: !estimated)
    sp;
  (match !estimated with
  | [] -> Alcotest.fail "no span carries an estimate"
  | s :: _ ->
    check bool_ "pp prints est" true
      (has_sub "est=" (Core.Trace.span_to_string s)));
  let json = Service.Json.to_string (Service.Protocol.span_to_json sp) in
  check bool_ "est crosses the protocol" true (has_sub "\"est\"" json)

let test_plan_recost_after_feedback () =
  (* a material correction change bumps the feedback generation; the
     stale cached plan is keyed under the old generation, so the next
     execution re-costs instead of reusing it *)
  let caches = fresh_caches () in
  let snap = fresh_snapshot () in
  let request = Service.Engine.Query { q = compilable_query; mode = `Engine } in
  let run () =
    match Service.Engine.exec ~caches snap request with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  ignore (run ());
  check int_ "one costed plan cached" 1
    (Lru.stats caches.Service.Engine.plans).Lru.entries;
  Lru.clear caches.Service.Engine.results;
  let hits0 = (Lru.stats caches.Service.Engine.plans).Lru.hits in
  ignore (run ());
  check int_ "stable generation reuses the plan" (hits0 + 1)
    (Lru.stats caches.Service.Engine.plans).Lru.hits;
  (* drive a material misestimate for this query's key *)
  let key = Service.Engine.canonical_key request in
  let feedback = snap.Service.Engine.feedback in
  Ir.Stats.Feedback.observe feedback ~key ~est:1000. ~actual:1000.;
  Ir.Stats.Feedback.observe feedback ~key ~est:1. ~actual:100000.;
  check bool_ "generation bumped" true (Ir.Stats.Feedback.generation feedback > 0);
  Lru.clear caches.Service.Engine.results;
  let hits1 = (Lru.stats caches.Service.Engine.plans).Lru.hits in
  ignore (run ());
  check int_ "stale plan is not served" hits1
    (Lru.stats caches.Service.Engine.plans).Lru.hits;
  check int_ "re-costed under the new generation" 2
    (Lru.stats caches.Service.Engine.plans).Lru.entries

(* the span tree crosses the protocol as well-formed JSON *)
let test_trace_json_roundtrip () =
  let r, sp =
    exec_traced
      (Service.Engine.Search
         { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin; complex = false; anchor = None })
  in
  let line = Service.Json.to_string (Service.Protocol.result_to_json r) in
  match Service.Json.parse line with
  | Error e -> Alcotest.failf "unparseable response: %s" e
  | Ok j -> begin
    match Service.Json.member "trace" j with
    | None -> Alcotest.fail "no trace member"
    | Some t ->
      check bool_ "root op name" true
        (Service.Json.member "op" t
        = Some (Service.Json.String sp.Core.Trace.name));
      check bool_ "elapsed present" true
        (Service.Json.member "elapsed_ns" t <> None)
  end

(* [result_of_json] inverts [result_to_json], on the value and over
   the wire, for results with rows, trees, a limit, a plan, timings
   and a nested trace; fields it does not know are ignored, and other
   responses are not results. *)
let test_result_json_roundtrip () =
  let span name children =
    {
      Core.Trace.name;
      input = -1;
      output = 3;
      est = 12;
      gov_steps = 40;
      elapsed_ns = 1_234_567;
      attrs = [ ("method", "termjoin"); ("note", "a \"quoted\" é") ];
      children;
    }
  in
  let rows_result =
    {
      Service.Engine.rows =
        [
          { tag = "section"; doc = 3; start = 17; score = 2.9999999999999996 };
          { tag = "p"; doc = 0; start = 4; score = 0.1 };
          { tag = "article-7.xml"; doc = 12; start = -1; score = 1e-300 };
        ];
      trees = [];
      total = 230;
      limit = Some 5;
      cached = true;
      plan = Some "planner: termjoin\n  est 12";
      timings = [ ("parse", 0.000125); ("execute", 1.5); ("total", 1.75) ];
      steps_used = 977;
      trace = Some (span "Scatter" [ span "Shard" [ span "TermJoin" [] ] ]);
    }
  in
  let trees_result =
    {
      Service.Engine.rows = [];
      trees = [ "<r>one</r>"; "<r>\"two\"\n</r>" ];
      total = 9;
      limit = None;
      cached = false;
      plan = None;
      timings = [];
      steps_used = 0;
      trace = None;
    }
  in
  let traced, _ =
    exec_traced
      (Service.Engine.Search
         { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin;
           complex = false; anchor = None })
  in
  let decodes what r json =
    check bool_ what true (Service.Protocol.result_of_json json = Ok r)
  in
  List.iter
    (fun (what, r) ->
      let json = Service.Protocol.result_to_json r in
      decodes what r json;
      (match Service.Json.parse (Service.Json.to_string json) with
      | Ok wire -> decodes (what ^ ", over the wire") r wire
      | Error e -> Alcotest.failf "%s: unparseable: %s" what e);
      decodes (what ^ ", extra fields")
        r
        (Service.Protocol.result_to_json
           ~extra:[ ("degraded", Service.Json.Bool true) ]
           r))
    [ ("rows", rows_result); ("trees", trees_result); ("traced", traced) ];
  List.iter
    (fun (what, json) ->
      check bool_ what true
        (Result.is_error (Service.Protocol.result_of_json json)))
    [
      ("error response", Service.Protocol.error_to_json ~code:"x" ~message:"y");
      ("explain response", Service.Protocol.ok_plan_to_json "plan");
      ("prepare response", Service.Protocol.ok_prepared_to_json 1);
    ]

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let mixed_requests n =
  List.init n (fun i ->
      let k = Some (1 + (i mod 17)) in
      let req =
        match i mod 5 with
        | 0 ->
          Service.Engine.Search
            { terms = [ "svplantone" ]; method_ = Service.Engine.Termjoin; complex = false; anchor = None }
        | 1 ->
          Service.Engine.Search
            {
              terms = [ "svplantone"; "svplanttwo" ];
              method_ = Service.Engine.Genmeet;
              complex = false;
              anchor = None;
            }
        | 2 -> Service.Engine.Phrase { phrase = "svphrasea svphraseb"; comp3 = i mod 2 = 0 }
        | 3 -> Service.Engine.Ranked { terms = [ "svplantone"; "svplanttwo" ] }
        | _ -> Service.Engine.Query { q = compilable_query; mode = `Engine }
      in
      (req, k))

let render outcome =
  match outcome with
  | Ok result -> encode result
  | Error e ->
    Service.Json.to_string (Service.Protocol.engine_error_to_json e)

let test_multi_domain_stress () =
  let requests = mixed_requests 200 in
  (* sequential baseline, no caches so every response is recomputed *)
  let expected = List.map (fun (req, k) -> render (exec ?k req)) requests in
  (* 4 domains, caches off, queue wide enough for every request *)
  let pool =
    Service.Scheduler.create ~workers:4 ~queue_depth:256
      ~plan_cache_capacity:0 ~result_cache_capacity:0 (Lazy.force snapshot)
  in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown pool)
    (fun () ->
      let promises =
        List.map
          (fun (req, k) ->
            match Service.Scheduler.submit pool ?k req with
            | Ok p -> p
            | Error _ -> Alcotest.fail "admission failed with a deep queue")
          requests
      in
      let got = List.map (fun p -> render (Service.Scheduler.await p)) promises in
      check int_ "200 responses" 200 (List.length got);
      List.iteri
        (fun i (want, have) ->
          if want <> have then
            Alcotest.failf "response %d differs:\nseq: %s\npar: %s" i want have)
        (List.combine expected got);
      let s = Service.Scheduler.stats pool in
      check int_ "all submitted" 200 s.Service.Scheduler.submitted;
      check int_ "all completed" 200 s.Service.Scheduler.completed)

let test_scheduler_backpressure () =
  let pool =
    Service.Scheduler.create ~workers:1 ~queue_depth:2 ~plan_cache_capacity:0
      ~result_cache_capacity:0 (Lazy.force snapshot)
  in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown pool)
    (fun () ->
      let gate = Mutex.create () in
      let open_ = ref false in
      let started = ref false in
      let cond = Condition.create () in
      let blocker () =
        Mutex.lock gate;
        started := true;
        Condition.broadcast cond;
        while not !open_ do
          Condition.wait cond gate
        done;
        Mutex.unlock gate
      in
      let b =
        match Service.Scheduler.submit_fn pool blocker with
        | Ok p -> p
        | Error _ -> Alcotest.fail "blocker rejected"
      in
      (* wait until the single worker is actually inside the blocker,
         so the queue is empty and fills deterministically *)
      Mutex.lock gate;
      while not !started do
        Condition.wait cond gate
      done;
      Mutex.unlock gate;
      let filler () = () in
      let queued =
        List.init 2 (fun _ ->
            match Service.Scheduler.submit_fn pool filler with
            | Ok p -> p
            | Error _ -> Alcotest.fail "queue rejected below its bound")
      in
      (* the queue is now at its bound: admission must shed load *)
      (match Service.Scheduler.submit_fn pool filler with
      | Error Service.Scheduler.Overloaded -> ()
      | Error Service.Scheduler.Closed -> Alcotest.fail "closed?"
      | Ok _ -> Alcotest.fail "overload admitted");
      (match
         Service.Scheduler.submit pool
           (Service.Engine.Ranked { terms = [ "svplantone" ] })
       with
      | Error Service.Scheduler.Overloaded -> ()
      | _ -> Alcotest.fail "query overload admitted");
      let s = Service.Scheduler.stats pool in
      check int_ "two rejections" 2 s.Service.Scheduler.rejected;
      (* open the gate; everything drains; admission recovers *)
      Mutex.lock gate;
      open_ := true;
      Condition.broadcast cond;
      Mutex.unlock gate;
      Service.Scheduler.await b;
      List.iter Service.Scheduler.await queued;
      match Service.Scheduler.run pool (Service.Engine.Ranked { terms = [ "svplantone" ] }) with
      | Ok (Ok _) -> ()
      | Ok (Error e) -> Alcotest.failf "post-drain query: %s" (Service.Engine.error_message e)
      | Error _ -> Alcotest.fail "post-drain admission failed")

let test_scheduler_reload_invalidates () =
  let pool =
    Service.Scheduler.create ~workers:1 ~queue_depth:8 (Lazy.force snapshot)
  in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown pool)
    (fun () ->
      let request = Service.Engine.Ranked { terms = [ "svplantone" ] } in
      let run () =
        match Service.Scheduler.run pool ~k:5 request with
        | Ok (Ok r) -> r
        | Ok (Error e) -> Alcotest.failf "query: %s" (Service.Engine.error_message e)
        | Error _ -> Alcotest.fail "admission failed"
      in
      let r1 = run () in
      check bool_ "miss first" false r1.Service.Engine.cached;
      let r2 = run () in
      check bool_ "hit second" true r2.Service.Engine.cached;
      check string_ "hit serves identical rows"
        (Service.Json.to_string (Service.Protocol.rows_to_json r1.Service.Engine.rows))
        (Service.Json.to_string (Service.Protocol.rows_to_json r2.Service.Engine.rows));
      (* install the next generation of the same database: caches drop *)
      let snap2 =
        match Service.Engine.of_db ~generation:1 (Lazy.force db) with
        | Ok s -> s
        | Error msg -> Alcotest.failf "of_db: %s" msg
      in
      (match Service.Scheduler.reload pool snap2 with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "reload: %s"
          (Service.Scheduler.reload_error_to_string e));
      check int_ "result cache emptied" 0
        (Service.Scheduler.stats pool).Service.Scheduler.result_cache.Lru.entries;
      let r3 = run () in
      check bool_ "recomputed after reload" false r3.Service.Engine.cached;
      check string_ "same answer on the same data"
        (Service.Json.to_string (Service.Protocol.rows_to_json r1.Service.Engine.rows))
        (Service.Json.to_string (Service.Protocol.rows_to_json r3.Service.Engine.rows)))

let test_scheduler_prepared () =
  let pool = Service.Scheduler.create ~workers:1 ~queue_depth:8 (Lazy.force snapshot) in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown pool)
    (fun () ->
      let id =
        match Service.Scheduler.prepare pool compilable_query with
        | Ok id -> id
        | Error e -> Alcotest.failf "prepare: %s" (Service.Engine.error_message e)
      in
      (match Service.Scheduler.prepare pool compilable_query with
      | Ok id' -> check int_ "same id on re-prepare" id id'
      | Error e -> Alcotest.failf "re-prepare: %s" (Service.Engine.error_message e));
      check bool_ "text stored" true
        (Service.Scheduler.prepared pool id = Some compilable_query);
      (match Service.Scheduler.prepare pool "for $a in" with
      | Error e -> check string_ "code" "parse_error" (Service.Engine.error_code e)
      | Ok _ -> Alcotest.fail "bad prepare accepted");
      let json =
        Service.Server.handle pool
          (Service.Protocol.Execute
             { id; k = Some 3; limits = Core.Governor.unlimited;
               trace = false; parallelism = None })
      in
      check bool_ "execute ok" true
        (Service.Json.member "ok" json = Some (Service.Json.Bool true)))

(* ------------------------------------------------------------------ *)
(* TCP server *)

let send_lines port lines =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock addr;
  let oc = Unix.out_channel_of_descr sock in
  let ic = Unix.in_channel_of_descr sock in
  let responses =
    List.map
      (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc;
        input_line ic)
      lines
  in
  (try Unix.close sock with Unix.Unix_error _ -> ());
  responses

let is_ok resp =
  match Service.Json.parse resp with
  | Ok j -> Service.Json.member "ok" j = Some (Service.Json.Bool true)
  | Error _ -> false

let test_tcp_server () =
  let pool = Service.Scheduler.create ~workers:2 ~queue_depth:64 (Lazy.force snapshot) in
  let server = Service.Server.start ~port:0 pool in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Service.Scheduler.shutdown pool)
    (fun () ->
      let port = Service.Server.port server in
      check bool_ "got a real port" true (port > 0);
      let query_line =
        Service.Json.to_string
          (Service.Protocol.request_to_json
             (Service.Protocol.Exec
                {
                  req =
                    Service.Engine.Search
                      {
                        terms = [ "svplantone" ];
                        method_ = Service.Engine.Termjoin;
                        complex = false;
                        anchor = None;
                      };
                  k = Some 4;
                  limits = Core.Governor.unlimited;
                  trace = false;
                  parallelism = None;
                  theta = None;
                }))
      in
      (* several concurrent connections, several requests each *)
      let results = Array.make 4 [] in
      let threads =
        List.init 4 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  send_lines port
                    [ {|{"op":"health"}|}; query_line; query_line ])
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i resps ->
          check int_ (Printf.sprintf "conn %d: 3 responses" i) 3 (List.length resps);
          List.iter
            (fun r -> check bool_ (Printf.sprintf "conn %d ok" i) true (is_ok r))
            resps;
          (* all connections got byte-identical search responses modulo
             the cached flag and timings; compare the rows only *)
          let rows r =
            match Service.Json.parse r with
            | Ok j -> Service.Json.member "results" j
            | Error _ -> None
          in
          match resps with
          | [ _; a; b ] ->
            check bool_ (Printf.sprintf "conn %d rows agree" i) true
              (rows a = rows b && rows a <> None)
          | _ -> ())
        results;
      (* protocol errors answer without closing the line *)
      (match
         send_lines port
           [ "not json"; {|{"op":"nope"}|}; {|{"op":"\uzzzz"}|}; {|{"op":"health"}|} ]
       with
      | [ bad1; bad2; bad3; ok ] ->
        check bool_ "bad json rejected" true (not (is_ok bad1));
        check bool_ "unknown op rejected" true (not (is_ok bad2));
        let code =
          match Service.Json.parse bad3 with
          | Ok j ->
            Option.bind (Service.Json.member "error" j) (fun e ->
                Option.bind (Service.Json.member "code" e) Service.Json.to_string_opt)
          | Error _ -> None
        in
        check (Alcotest.option string_) "bad escape is a bad_request"
          (Some "bad_request") code;
        check bool_ "line survives" true (is_ok ok)
      | other -> Alcotest.failf "expected 4 responses, got %d" (List.length other));
      (* stats over the wire *)
      match send_lines port [ {|{"op":"stats"}|} ] with
      | [ stats ] ->
        check bool_ "stats ok" true (is_ok stats);
        let j = Result.get_ok (Service.Json.parse stats) in
        check bool_ "has scheduler section" true
          (Service.Json.member "scheduler" j <> None)
      | _ -> Alcotest.fail "no stats response")

(* a line one byte over the cap is answered with a typed error, and
   the same connection then serves the next request *)
let test_request_line_bound () =
  let pool = Service.Scheduler.create ~workers:1 ~queue_depth:8 (Lazy.force snapshot) in
  let server = Service.Server.start ~port:0 pool in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Service.Scheduler.shutdown pool)
    (fun () ->
      let cap = Service.Server.max_line_bytes in
      match
        send_lines (Service.Server.port server)
          [ String.make (cap + 1) 'x'; {|{"op":"health"}|} ]
      with
      | [ over; health ] ->
        let error =
          match Service.Json.parse over with
          | Ok j -> Service.Json.member "error" j
          | Error _ -> None
        in
        let field name =
          Option.bind error (fun e ->
              Option.bind (Service.Json.member name e) Service.Json.to_string_opt)
        in
        check (Alcotest.option string_) "over-long line is a bad_request"
          (Some "bad_request") (field "code");
        check (Alcotest.option string_) "the error names the cap"
          (Some (Printf.sprintf "request line exceeds %d bytes" cap))
          (field "message");
        check bool_ "the connection serves the next line" true (is_ok health)
      | other -> Alcotest.failf "expected 2 responses, got %d" (List.length other))

(* ------------------------------------------------------------------ *)
(* Intra-query parallelism plumbing *)

(* "parallelism" survives a protocol round trip *)
let test_protocol_parallelism_roundtrip () =
  let req =
    Service.Protocol.Exec
      {
        req =
          Service.Engine.Search
            {
              terms = [ "svplantone" ];
              method_ = Service.Engine.Termjoin;
              complex = false;
              anchor = None;
            };
        k = Some 5;
        limits = Core.Governor.unlimited;
        trace = false;
        parallelism = Some 3;
        theta = None;
      }
  in
  let line = Service.Json.to_string (Service.Protocol.request_to_json req) in
  check bool_ "field on the wire" true
    (let j = Result.get_ok (Service.Json.parse line) in
     Service.Json.member "parallelism" j = Some (Service.Json.Int 3));
  match Service.Protocol.parse_request line with
  | Ok req' -> check bool_ "roundtrip" true (req = req')
  | Error e -> Alcotest.failf "parse: %s" e

(* a parallel submission returns the same rows as a sequential one,
   through a pool whose cap clamps the request's ask *)
let test_scheduler_parallelism () =
  let pool =
    Service.Scheduler.create ~workers:1 ~max_parallelism:2
      ~result_cache_capacity:0 (Lazy.force snapshot)
  in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown pool)
    (fun () ->
      let req =
        Service.Engine.Search
          {
            terms = [ "svplantone"; "svplanttwo" ];
            method_ = Service.Engine.Termjoin;
            complex = true;
            anchor = None;
          }
      in
      let run ?parallelism () =
        match Service.Scheduler.run pool ?parallelism req with
        | Ok (Ok r) -> r
        | Ok (Error e) ->
          Alcotest.failf "exec: %s" (Service.Engine.error_message e)
        | Error e -> Alcotest.failf "submit: %s" (Service.Scheduler.error_code e)
      in
      let seq = run () in
      (* 8 clamps to the pool's cap of 2; results must not change *)
      let par = run ~parallelism:8 () in
      check bool_ "rows identical" true
        (seq.Service.Engine.rows = par.Service.Engine.rows);
      check int_ "total identical" seq.Service.Engine.total
        par.Service.Engine.total;
      check bool_ "steps accounted" true (par.Service.Engine.steps_used > 0);
      (* steps_used crosses the response encoder *)
      let j = Service.Protocol.result_to_json par in
      match Service.Json.member "steps_used" j with
      | Some (Service.Json.Int n) -> check bool_ "steps_used > 0" true (n > 0)
      | _ -> Alcotest.fail "steps_used missing from response")

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "escapes" `Quick test_json_escaped_output_parses;
          Alcotest.test_case "bad \\u escape" `Quick test_json_bad_unicode_escape;
          Alcotest.test_case "nesting depth cap" `Quick test_json_depth_cap;
          QCheck_alcotest.to_alcotest test_json_float_roundtrip;
          Alcotest.test_case "result decode inverts encode" `Quick
            test_result_json_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "replace and clear" `Quick test_lru_replace_and_clear;
          Alcotest.test_case "disabled" `Quick test_lru_disabled;
          Alcotest.test_case "add existing refreshes" `Quick
            test_lru_add_existing_refreshes;
          Alcotest.test_case "capacity 1" `Quick test_lru_capacity_one;
          Alcotest.test_case "capacity 0 stats" `Quick test_lru_capacity_zero_stats;
          Alcotest.test_case "concurrent stats" `Slow test_lru_concurrent_stats;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and quantiles" `Quick test_metrics;
          Alcotest.test_case "bucketing vs reference" `Quick
            test_metrics_bucketing_property;
          Alcotest.test_case "observe_s rounds" `Quick test_metrics_observe_s_rounds;
        ] );
      ( "cache keys",
        [
          Alcotest.test_case "equal tokenizations merge" `Quick
            test_cache_key_merges_equal_tokenizations;
          Alcotest.test_case "distinct tokenizations separate" `Quick
            test_cache_key_separates_distinct_tokenizations;
          Alcotest.test_case "unterminated literal prefix" `Quick
            test_cache_key_unterminated_whitespace_before_quote;
        ] );
      ( "engine",
        [
          Alcotest.test_case "search matches direct" `Quick
            test_engine_search_matches_direct;
          Alcotest.test_case "query compiles" `Quick test_engine_query_compiles;
          Alcotest.test_case "bad requests" `Quick test_engine_bad_requests;
          Alcotest.test_case "governor" `Quick test_engine_governor;
          Alcotest.test_case "result cache" `Quick test_engine_result_cache;
          Alcotest.test_case "result cache honours limits" `Quick
            test_result_cache_honours_limits;
          Alcotest.test_case "plan cache" `Quick test_engine_plan_cache;
          Alcotest.test_case "explain" `Quick test_engine_explain;
          Alcotest.test_case "auto search method" `Quick test_search_auto;
          Alcotest.test_case "costed explain" `Quick test_explain_costed;
          Alcotest.test_case "re-plan after feedback" `Quick
            test_plan_recost_after_feedback;
        ] );
      ( "trace",
        [
          Alcotest.test_case "all access families" `Quick test_trace_all_families;
          Alcotest.test_case "interpreter clauses" `Quick test_trace_interpreter;
          Alcotest.test_case "bypasses result cache" `Quick
            test_trace_bypasses_cache;
          Alcotest.test_case "span JSON roundtrip" `Quick test_trace_json_roundtrip;
          Alcotest.test_case "operator estimates" `Quick test_trace_estimates;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "4-domain stress, byte-identical" `Slow
            test_multi_domain_stress;
          Alcotest.test_case "backpressure" `Quick test_scheduler_backpressure;
          Alcotest.test_case "reload invalidates" `Quick
            test_scheduler_reload_invalidates;
          Alcotest.test_case "prepared statements" `Quick test_scheduler_prepared;
          Alcotest.test_case "parallelism protocol roundtrip" `Quick
            test_protocol_parallelism_roundtrip;
          Alcotest.test_case "parallel = sequential rows" `Quick
            test_scheduler_parallelism;
        ] );
      ( "server",
        [
          Alcotest.test_case "tcp" `Slow test_tcp_server;
          Alcotest.test_case "request line bound" `Quick test_request_line_bound;
        ] );
    ]
