(* Parallel executor tests: partition planner invariants, determinism
   of the parallel access methods against their sequential forms (at 2
   and 4 domains, under the planner's chunking and under randomized
   chunkings down to single-block ranges), the shared governor budget
   tripping exactly once, and the engine-level parallelism and
   steps_used plumbing. *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Corpus: planted terms spread over enough documents that the planner
   has real block boundaries to cut at, with frequencies chosen so
   many documents tie on score (the tie-break path must survive
   partitioning). *)

let cfg =
  {
    Workload.Corpus.articles = 30;
    seed = 11;
    chapters_per_article = 2;
    sections_per_chapter = 2;
    paragraphs_per_section = 3;
    words_per_paragraph = 16;
    vocabulary = 200;
    planted_terms = [ ("pxone", 150); ("pxtwo", 90); ("pxrare", 7) ];
    planted_phrases = [ ("pxpa", "pxpb", 20) ];
  }

let db =
  lazy
    (let options = { Store.Db.default_options with keep_trees = false } in
     Store.Db.load ~options (Workload.Corpus.generate cfg))

let ctx = lazy (Access.Ctx.of_db (Lazy.force db))
let terms = [ "pxone"; "pxtwo" ]
let phrase = [ "pxpa"; "pxpb" ]

let same_nodes what (expected : Access.Scored_node.t list)
    (got : Access.Scored_node.t list) =
  check int_ (what ^ ": cardinality") (List.length expected) (List.length got);
  check bool_ (what ^ ": identical") true (expected = got)

let same_docs what (expected : (int * float) list) (got : (int * float) list) =
  check int_ (what ^ ": cardinality") (List.length expected) (List.length got);
  check bool_ (what ^ ": identical") true (expected = got)

(* ------------------------------------------------------------------ *)
(* Partition planner *)

let test_partition_invariants () =
  let ctx = Lazy.force ctx in
  let check_ranges chunks ranges =
    check bool_ "at least one range" true (ranges <> []);
    check bool_
      (Printf.sprintf "at most %d ranges" chunks)
      true
      (List.length ranges <= max 1 chunks);
    (match ranges with
    | (lo, _) :: _ -> check int_ "first lo = 0" 0 lo
    | [] -> ());
    let rec walk = function
      | [ (_, hi) ] -> check bool_ "last hi = max_int" true (hi = max_int)
      | (lo, hi) :: ((lo', _) :: _ as rest) ->
        check bool_ "non-empty interval" true (lo < hi);
        check int_ "intervals abut" hi lo';
        walk rest
      | [] -> ()
    in
    walk ranges
  in
  List.iter
    (fun chunks ->
      check_ranges chunks (Exec.Partition.plan ctx ~terms ~chunks))
    [ 1; 2; 3; 4; 8; 64 ];
  check bool_ "chunks=1 is the whole space" true
    (Exec.Partition.plan ctx ~terms ~chunks:1 = [ (0, max_int) ]);
  (* an unknown term contributes no postings but must not break the
     planner *)
  check bool_ "unknown term tolerated" true
    (Exec.Partition.plan ctx ~terms:[ "nosuchterm" ] ~chunks:4 <> [])

(* ------------------------------------------------------------------ *)
(* Determinism under the planner's chunking, 2 and 4 domains *)

let test_parallel_matches_sequential () =
  let ctx = Lazy.force ctx in
  let complex = Access.Counter_scoring.Complex in
  List.iter
    (fun parallelism ->
      let p = string_of_int parallelism in
      same_nodes ("term_join/" ^ p)
        (Access.Term_join.to_list ctx ~terms)
        (Exec.Par.term_join ~parallelism ctx ~terms);
      same_nodes
        ("term_join-complex/" ^ p)
        (Access.Term_join.to_list ~mode:complex ctx ~terms)
        (Exec.Par.term_join ~mode:complex ~parallelism ctx ~terms);
      same_nodes ("enhanced/" ^ p)
        (Access.Term_join.to_list ~variant:Access.Term_join.Enhanced
           ~mode:complex ctx ~terms)
        (Exec.Par.term_join ~variant:Access.Term_join.Enhanced ~mode:complex
           ~parallelism ctx ~terms);
      same_nodes ("gen_meet/" ^ p)
        (Access.Gen_meet.to_list ctx ~terms)
        (Exec.Par.gen_meet ~parallelism ctx ~terms);
      same_nodes ("phrase/" ^ p)
        (Access.Phrase_finder.to_list ctx ~phrase)
        (Exec.Par.phrase ~parallelism ctx ~phrase);
      List.iter
        (fun k ->
          same_docs
            (Printf.sprintf "ranked-k%d/%s" k p)
            (Access.Ranked.top_k_docs ctx ~terms ~k)
            (Exec.Par.top_k_docs ~parallelism ctx ~terms ~k))
        [ 1; 3; 10; 1000 ])
    [ 2; 4 ]

(* ties at the k-th rank: every planted occurrence of a term scores
   identically in many documents, so doc-id tie-breaking decides the
   cut — the parallel merge must reproduce it exactly *)
let test_ranked_tie_breaking () =
  let ctx = Lazy.force ctx in
  let seq = Access.Ranked.top_k_docs ctx ~terms:[ "pxone" ] ~k:7 in
  (* the corpus must actually exercise ties for this test to mean
     anything *)
  let scores = List.map snd seq in
  check bool_ "corpus produces score ties" true
    (List.length (List.sort_uniq compare scores) < List.length scores);
  List.iter
    (fun parallelism ->
      same_docs
        (Printf.sprintf "tied-k7/%d" parallelism)
        seq
        (Exec.Par.top_k_docs ~parallelism ctx ~terms:[ "pxone" ] ~k:7))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Randomized chunkings: arbitrary covering range lists — including
   degenerate single-document and empty-interior chunks — must not
   change any result. *)

let ranges_of_cuts cuts =
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0) cuts) in
  let rec go lo = function
    | [] -> [ (lo, max_int) ]
    | c :: rest -> (lo, c) :: go c rest
  in
  go 0 cuts

let chunking_gen =
  QCheck.Gen.(
    map2
      (fun parallelism cuts -> (parallelism, cuts))
      (int_range 2 4)
      (list_size (int_range 0 12) (int_range 1 40)))

let test_random_chunking_property =
  QCheck.Test.make ~name:"random chunkings = sequential" ~count:40
    (QCheck.make chunking_gen) (fun (parallelism, cuts) ->
      let ctx = Lazy.force ctx in
      let ranges = ranges_of_cuts cuts in
      Access.Term_join.to_list ctx ~terms
      = Exec.Par.term_join ~ranges ~parallelism ctx ~terms
      && Access.Phrase_finder.to_list ctx ~phrase
         = Exec.Par.phrase ~ranges ~parallelism ctx ~phrase
      && Access.Ranked.top_k_docs ctx ~terms ~k:5
         = Exec.Par.top_k_docs ~ranges ~parallelism ctx ~terms ~k:5)

(* one-document chunks: the finest chunking possible (every chunk
   covers at most one skip block's worth of documents) *)
let test_single_doc_chunks () =
  let ctx = Lazy.force ctx in
  let docs = Store.Catalog.document_count ctx.Access.Ctx.catalog in
  let ranges = ranges_of_cuts (List.init docs (fun i -> i + 1)) in
  check bool_ "one chunk per document" true (List.length ranges > docs);
  same_nodes "term_join/1-doc-chunks"
    (Access.Term_join.to_list ctx ~terms)
    (Exec.Par.term_join ~ranges ~parallelism:4 ctx ~terms);
  same_docs "ranked/1-doc-chunks"
    (Access.Ranked.top_k_docs ctx ~terms ~k:10)
    (Exec.Par.top_k_docs ~ranges ~parallelism:4 ctx ~terms ~k:10)

(* ------------------------------------------------------------------ *)
(* Shared governor budget *)

let test_shared_budget_trips_once () =
  let ctx = Lazy.force ctx in
  let limits = Core.Governor.limits ~max_steps:10 () in
  let sh = Core.Governor.make_shared limits in
  let raised = ref 0 in
  (match Exec.Par.term_join ~shared:sh ~parallelism:4 ctx ~terms with
  | _ -> Alcotest.fail "10-step budget not enforced"
  | exception Core.Governor.Resource_exhausted v ->
    incr raised;
    check bool_ "violation is Steps" true (v.Core.Governor.reason = Core.Governor.Steps));
  check int_ "raised exactly once" 1 !raised;
  (* every domain observed (or caused) the same trip *)
  (match Core.Governor.shared_violation sh with
  | Some v ->
    check bool_ "shared violation is Steps" true
      (v.Core.Governor.reason = Core.Governor.Steps)
  | None -> Alcotest.fail "budget tripped but no shared violation recorded");
  check bool_ "steps accounted" true (Core.Governor.shared_steps sh >= 10)

let test_shared_budget_not_tripped () =
  let ctx = Lazy.force ctx in
  let sh = Core.Governor.make_shared Core.Governor.unlimited in
  let results = Exec.Par.term_join ~shared:sh ~parallelism:2 ctx ~terms in
  check bool_ "results flow" true (results <> []);
  check bool_ "no violation" true (Core.Governor.shared_violation sh = None);
  (* the parallel run accounts at least one step per emitted node *)
  check bool_ "steps >= results" true
    (Core.Governor.shared_steps sh >= List.length results)

(* ------------------------------------------------------------------ *)
(* Engine plumbing: ?parallelism and steps_used *)

let snapshot =
  lazy
    (match Service.Engine.of_db (Lazy.force db) with
    | Ok s -> s
    | Error msg -> Alcotest.failf "of_db: %s" msg)

let exec_rows ?parallelism req =
  match Service.Engine.exec ?parallelism (Lazy.force snapshot) req with
  | Ok r -> r
  | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)

let test_engine_parallel_identical () =
  let reqs =
    [
      ( "search",
        Service.Engine.Search
          { terms; method_ = Service.Engine.Termjoin; complex = true; anchor = None } );
      ( "genmeet",
        Service.Engine.Search
          { terms; method_ = Service.Engine.Genmeet; complex = false; anchor = None } );
      ("phrase", Service.Engine.Phrase { phrase = "pxpa pxpb"; comp3 = false });
      ("ranked", Service.Engine.Ranked { terms });
    ]
  in
  List.iter
    (fun (name, req) ->
      let seq = exec_rows req in
      let par = exec_rows ~parallelism:4 req in
      check int_ (name ^ ": total") seq.Service.Engine.total
        par.Service.Engine.total;
      check bool_ (name ^ ": rows identical") true
        (seq.Service.Engine.rows = par.Service.Engine.rows))
    reqs

let test_engine_steps_used () =
  let req =
    Service.Engine.Search
      { terms; method_ = Service.Engine.Termjoin; complex = false; anchor = None }
  in
  let seq = exec_rows req in
  check bool_ "sequential steps_used > 0" true
    (seq.Service.Engine.steps_used > 0);
  let par = exec_rows ~parallelism:2 req in
  check bool_ "parallel steps_used > 0" true
    (par.Service.Engine.steps_used > 0);
  (* a cache hit costs no governor steps *)
  let caches =
    {
      Service.Engine.plans = Service.Lru.create ~capacity:8;
      results = Service.Lru.create ~capacity:8;
    }
  in
  let run () =
    match Service.Engine.exec ~caches (Lazy.force snapshot) req with
    | Ok r -> r
    | Error e -> Alcotest.failf "exec: %s" (Service.Engine.error_message e)
  in
  ignore (run () : Service.Engine.result);
  let cached = run () in
  check bool_ "second run cached" true cached.Service.Engine.cached;
  check int_ "cached steps_used = 0" 0 cached.Service.Engine.steps_used

let test_engine_parallel_budget_error () =
  let limits = Core.Governor.limits ~max_steps:5 () in
  let req =
    Service.Engine.Search
      { terms; method_ = Service.Engine.Termjoin; complex = false; anchor = None }
  in
  match
    Service.Engine.exec ~limits ~parallelism:4 (Lazy.force snapshot) req
  with
  | Ok _ -> Alcotest.fail "5-step budget not enforced"
  | Error (Service.Engine.Exhausted v) ->
    check bool_ "typed steps violation" true
      (v.Core.Governor.reason = Core.Governor.Steps)
  | Error e ->
    Alcotest.failf "wrong error: %s" (Service.Engine.error_message e)

(* a result-cap breach reports the steps the request took, the same
   sequentially and across domains *)
let test_engine_result_cap_steps () =
  let limits = Core.Governor.limits ~max_results:1 () in
  let req =
    Service.Engine.Search
      { terms; method_ = Service.Engine.Termjoin; complex = false; anchor = None }
  in
  let steps parallelism =
    match
      Service.Engine.exec ~limits ~parallelism (Lazy.force snapshot) req
    with
    | Error (Service.Engine.Exhausted v) ->
      check bool_ "result-cap violation" true
        (v.Core.Governor.reason = Core.Governor.Results);
      v.Core.Governor.steps
    | Ok _ -> Alcotest.fail "1-result cap not enforced"
    | Error e ->
      Alcotest.failf "wrong error: %s" (Service.Engine.error_message e)
  in
  let sequential = steps 1 in
  check bool_ "steps reported" true (sequential > 1);
  check int_ "parallel steps = sequential steps" sequential (steps 2)

(* the fan-out shows up in the span tree: one Parallel span with one
   Partition child per chunk *)
let test_parallel_trace_spans () =
  let ctx = Lazy.force ctx in
  let tracer = Core.Trace.make () in
  let _ = Exec.Par.term_join ~trace:tracer ~parallelism:2 ctx ~terms in
  match Core.Trace.root tracer with
  | None -> Alcotest.fail "no span recorded"
  | Some sp ->
    check bool_ "root is Parallel" true (sp.Core.Trace.name = "Parallel");
    check bool_ "has Partition children" true
      (sp.Core.Trace.children <> []
      && List.for_all
           (fun c -> c.Core.Trace.name = "Partition")
           sp.Core.Trace.children)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "exec"
    [
      ("partition", [ tc "planner invariants" `Quick test_partition_invariants ]);
      ( "determinism",
        [
          tc "parallel = sequential (2/4 domains)" `Quick
            test_parallel_matches_sequential;
          tc "ranked tie-breaking" `Quick test_ranked_tie_breaking;
          tc "single-doc chunks" `Quick test_single_doc_chunks;
          QCheck_alcotest.to_alcotest test_random_chunking_property;
        ] );
      ( "shared budget",
        [
          tc "trips exactly once" `Quick test_shared_budget_trips_once;
          tc "accounts without tripping" `Quick test_shared_budget_not_tripped;
        ] );
      ( "engine",
        [
          tc "parallel rows identical" `Quick test_engine_parallel_identical;
          tc "steps_used" `Quick test_engine_steps_used;
          tc "budget error is typed" `Quick test_engine_parallel_budget_error;
          tc "result-cap steps" `Quick test_engine_result_cap_steps;
          tc "trace fan-out" `Quick test_parallel_trace_spans;
        ] );
    ]
