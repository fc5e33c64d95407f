(* Robustness tests: the fault-injection harness, checksummed image
   persistence (corruption sweep), the per-query resource governor
   and error-isolated bulk load.

   The central properties:
   - under injected storage faults, every access method either
     succeeds with exactly the fault-free scores or fails with a
     typed [Pager.Read_error] — never a crash, never wrong results;
   - any single-byte corruption of a saved image is reported as a
     typed [Db.error] by [open_file] — never an exception, never a
     silently wrong database;
   - a breached resource budget surfaces as
     [Governor.Resource_exhausted] and leaves the evaluator usable;
     ample budgets change nothing. *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let fresh_db () = Store.Db.of_documents Workload.Paper_db.documents

let pager_of db = Store.Element_store.pager (Store.Db.elements db)

(* ------------------------------------------------------------------ *)
(* Fault injector *)

let test_fault_deterministic () =
  let f1 = Store.Fault.create ~seed:9 ~transient_rate:0.5 ~corrupt_rate:0.2 () in
  let f2 = Store.Fault.create ~seed:9 ~transient_rate:0.5 ~corrupt_rate:0.2 () in
  for page = 0 to 50 do
    for attempt = 0 to 5 do
      check bool_ "same outcome" true
        (Store.Fault.outcome f1 ~page ~attempt
        = Store.Fault.outcome f2 ~page ~attempt)
    done
  done

let test_fault_zero_rates_healthy () =
  let f = Store.Fault.create ~seed:1 () in
  for page = 0 to 100 do
    check bool_ "healthy" true
      (Store.Fault.outcome f ~page ~attempt:0 = Store.Fault.Healthy)
  done

let test_fault_corruption_permanent () =
  let f = Store.Fault.create ~seed:3 ~corrupt_rate:0.5 () in
  for page = 0 to 50 do
    let first = Store.Fault.outcome f ~page ~attempt:0 in
    for attempt = 1 to 5 do
      check bool_ "corruption sticks to the page" true
        (Store.Fault.outcome f ~page ~attempt = first)
    done
  done

let test_fault_corrupt_changes_bytes () =
  let f = Store.Fault.create ~seed:4 ~corrupt_rate:1.0 () in
  let page = Bytes.make 64 'a' in
  let before = Bytes.copy page in
  Store.Fault.corrupt_in_place f ~page:0 page;
  check bool_ "bytes changed" false (Bytes.equal before page)

(* ------------------------------------------------------------------ *)
(* Pager under faults *)

let faulty_pager ?seed ?transient_rate ?corrupt_rate ?max_retries () =
  let pager = Store.Pager.create ~page_size:32 () in
  for i = 0 to 7 do
    ignore (Store.Pager.append_page pager (Bytes.make 32 (Char.chr (65 + i))))
  done;
  Store.Pager.set_fault pager
    (Some (Store.Fault.create ?seed ?transient_rate ?corrupt_rate ?max_retries ()));
  pager

let test_pager_retries_transients () =
  (* at a moderate transient rate every read eventually succeeds, and
     served bytes are exactly what was written *)
  let pager = faulty_pager ~seed:11 ~transient_rate:0.4 ~max_retries:64 () in
  for i = 0 to 7 do
    check bool_ "correct bytes through retries" true
      (Bytes.equal (Store.Pager.read_page pager i) (Bytes.make 32 (Char.chr (65 + i))))
  done;
  check int_ "no failures" 0 (Store.Pager.stats pager).Store.Pager.failures

let test_pager_transient_exhausted () =
  let pager = faulty_pager ~seed:12 ~transient_rate:1.0 ~max_retries:3 () in
  (match Store.Pager.read_page_result pager 0 with
  | Ok _ -> Alcotest.fail "expected exhausted retries"
  | Error e ->
    check bool_ "kind" true (e.Store.Pager.kind = Store.Pager.Transient_exhausted);
    check int_ "attempts = 1 + retries" 4 e.Store.Pager.attempts);
  check int_ "failure counted" 1 (Store.Pager.stats pager).Store.Pager.failures;
  (* the exception variant raises the same typed error *)
  match Store.Pager.read_page pager 1 with
  | _ -> Alcotest.fail "expected Read_error"
  | exception Store.Pager.Read_error e ->
    check bool_ "kind" true (e.Store.Pager.kind = Store.Pager.Transient_exhausted)

let test_pager_detects_corruption () =
  let pager = faulty_pager ~seed:13 ~corrupt_rate:1.0 () in
  (match Store.Pager.read_page_result pager 0 with
  | Ok _ -> Alcotest.fail "expected checksum mismatch"
  | Error e ->
    check bool_ "kind" true (e.Store.Pager.kind = Store.Pager.Checksum_mismatch));
  check int_ "failure counted" 1 (Store.Pager.stats pager).Store.Pager.failures

let test_pager_out_of_bounds_message () =
  let pager = faulty_pager () in
  (match Store.Pager.read_page pager 99 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check bool_ "names the page id" true (contains msg "99");
    check bool_ "names the page count" true (contains msg "8"));
  check int_ "failure counted" 1 (Store.Pager.stats pager).Store.Pager.failures

let test_pager_fault_free_hits_unaffected () =
  (* resident frames never consult the injector *)
  let pager = faulty_pager () in
  Store.Pager.set_fault pager None;
  let bytes = Bytes.copy (Store.Pager.read_page pager 0) in
  Store.Pager.set_fault pager
    (Some (Store.Fault.create ~seed:1 ~transient_rate:1.0 ~corrupt_rate:1.0 ()));
  check bool_ "hit served from pool" true
    (Bytes.equal bytes (Store.Pager.read_page pager 0))

(* ------------------------------------------------------------------ *)
(* Access methods under injected faults *)

let key_score_list nodes =
  List.map
    (fun (n : Access.Scored_node.t) -> ((n.doc, n.start), n.score))
    (List.sort Access.Scored_node.compare_pos nodes)

(* Run [f] on a fresh paper database with faults injected at the
   storage layer; either it agrees exactly with the fault-free
   baseline or it raises the typed read error. Returns whether the
   run survived. *)
let run_under_faults ~seed ~transient_rate ~corrupt_rate f =
  let baseline = f (fresh_db ()) in
  let db = fresh_db () in
  let pager = pager_of db in
  Store.Pager.set_fault pager
    (Some (Store.Fault.create ~seed ~transient_rate ~corrupt_rate ()));
  Store.Pager.clear_pool pager;
  match f db with
  | results ->
    check bool_ "faulty run agrees with baseline" true
      (key_score_list results = key_score_list baseline);
    true
  | exception Store.Pager.Read_error _ -> false

let rates = [ (0.0, 0.0); (0.3, 0.0); (0.0, 0.3); (0.5, 0.5); (1.0, 1.0) ]

let sweep_method name f =
  List.iteri
    (fun i (transient_rate, corrupt_rate) ->
      List.iter
        (fun seed ->
          ignore (run_under_faults ~seed ~transient_rate ~corrupt_rate f);
          (* outcome (survive or typed error) is all we assert; both
             are valid depending on where the faults land *)
          ignore name;
          ignore i)
        [ 1; 7; 42 ])
    rates

let test_term_join_under_faults () =
  sweep_method "termjoin" (fun db ->
      Access.Term_join.to_list (Access.Ctx.of_db db)
        ~terms:[ "search"; "retrieval" ])

let test_term_join_enhanced_under_faults () =
  sweep_method "enhanced" (fun db ->
      Access.Term_join.to_list ~variant:Access.Term_join.Enhanced
        ~mode:Access.Counter_scoring.Complex (Access.Ctx.of_db db)
        ~terms:[ "search"; "internet" ])

let test_gen_meet_under_faults () =
  sweep_method "genmeet" (fun db ->
      Access.Gen_meet.to_list ~mode:Access.Counter_scoring.Complex
        (Access.Ctx.of_db db) ~terms:[ "search"; "retrieval" ])

let test_phrase_finder_under_faults () =
  sweep_method "phrasefinder" (fun db ->
      Access.Phrase_finder.to_list (Access.Ctx.of_db db)
        ~phrase:[ "search"; "engine" ])

let test_transient_only_faults_always_recover () =
  (* below rate 1, bounded retry converges: a transient-only fault
     load must never surface an error with a generous retry budget.
     Complex scoring with the plain variant pays a data access per
     node, so the pager is actually exercised. *)
  let injected = ref 0 in
  List.iter
    (fun seed ->
      let run db =
        Access.Term_join.to_list ~mode:Access.Counter_scoring.Complex
          (Access.Ctx.of_db db) ~terms:[ "search"; "retrieval" ]
      in
      let baseline = run (fresh_db ()) in
      let db = fresh_db () in
      let pager = pager_of db in
      Store.Pager.set_fault pager
        (Some
           (Store.Fault.create ~seed ~transient_rate:0.6 ~max_retries:64 ()));
      Store.Pager.clear_pool pager;
      let results = run db in
      check bool_ "recovered to exact scores" true
        (key_score_list results = key_score_list baseline);
      let f = Option.get (Store.Pager.fault pager) in
      injected := !injected + (Store.Fault.stats f).Store.Fault.transient)
    [ 2; 3; 5; 8 ];
  (* the paper db is tiny (few pool misses), so individual seeds may
     roll healthy; across the seeds faults must actually fire *)
  check bool_ "faults were actually injected" true (!injected > 0)

let test_full_corruption_never_crashes () =
  (* 100% corruption: every cold read must fail with the typed error *)
  let db = fresh_db () in
  let pager = pager_of db in
  Store.Pager.set_fault pager
    (Some (Store.Fault.create ~seed:21 ~corrupt_rate:1.0 ()));
  Store.Pager.clear_pool pager;
  match
    Access.Term_join.to_list ~mode:Access.Counter_scoring.Complex
      (Access.Ctx.of_db db) ~terms:[ "search"; "retrieval" ]
  with
  | _ -> Alcotest.fail "expected a typed read error"
  | exception Store.Pager.Read_error e ->
    check bool_ "checksum caught it" true
      (e.Store.Pager.kind = Store.Pager.Checksum_mismatch)

(* ------------------------------------------------------------------ *)
(* Corruption sweep over the saved image *)

let with_saved_image f =
  let db = fresh_db () in
  let path = Filename.temp_file "tix_fault" ".tix" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      f db path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let test_corruption_sweep_byte_flips () =
  with_saved_image (fun _db path ->
      let image = read_file path in
      let n = String.length image in
      check bool_ "image is non-trivial" true (n > 64);
      (* flip one byte at every offset: the header and framing are
         structurally checked, every payload byte is under a CRC, so
         each flip must yield a typed error *)
      for off = 0 to n - 1 do
        let damaged = Bytes.of_string image in
        Bytes.set damaged off
          (Char.chr (Char.code image.[off] lxor 0x01));
        write_file path (Bytes.to_string damaged);
        match Store.Db.open_file path with
        | Ok _ -> Alcotest.failf "flip at offset %d went undetected" off
        | Error _ -> ()
      done)

let test_corruption_sweep_truncation () =
  with_saved_image (fun _db path ->
      let image = read_file path in
      let n = String.length image in
      (* truncate at a spread of lengths including 0 and n-1 *)
      let cuts = [ 0; 1; 4; 8; 12; n / 4; n / 2; n - 17; n - 1 ] in
      List.iter
        (fun len ->
          if len >= 0 && len < n then begin
            write_file path (String.sub image 0 len);
            match Store.Db.open_file path with
            | Ok _ -> Alcotest.failf "truncation to %d went undetected" len
            | Error _ -> ()
          end)
        cuts)

let test_corruption_reports_right_variant () =
  with_saved_image (fun _db path ->
      let image = read_file path in
      (* not a database at all *)
      write_file path "these are not the bytes you are looking for";
      (match Store.Db.open_file path with
      | Error (Store.Db.Not_a_database _) -> ()
      | Error e ->
        Alcotest.failf "wanted Not_a_database, got %s" (Store.Db.error_to_string e)
      | Ok _ -> Alcotest.fail "garbage accepted");
      (* recognizably TIX but an alien version *)
      write_file path ("TIXDB999" ^ String.sub image 8 (String.length image - 8));
      (match Store.Db.open_file path with
      | Error (Store.Db.Unsupported_version { found; _ }) ->
        check bool_ "found version is reported" true (found = "TIXDB999")
      | Error e ->
        Alcotest.failf "wanted Unsupported_version, got %s"
          (Store.Db.error_to_string e)
      | Ok _ -> Alcotest.fail "alien version accepted");
      (* a payload flip deep in the file is a checksum mismatch *)
      let damaged = Bytes.of_string image in
      let off = String.length image - 20 in
      Bytes.set damaged off (Char.chr (Char.code image.[off] lxor 0x40));
      write_file path (Bytes.to_string damaged);
      match Store.Db.open_file path with
      | Error (Store.Db.Checksum_mismatch { section; _ }) ->
        check bool_ "section is named" true (String.length section > 0)
      | Error e ->
        Alcotest.failf "wanted Checksum_mismatch, got %s"
          (Store.Db.error_to_string e)
      | Ok _ -> Alcotest.fail "payload flip accepted")

let test_pristine_image_reopens () =
  with_saved_image (fun db path ->
      match Store.Db.open_file path with
      | Error e -> Alcotest.failf "pristine image rejected: %s" (Store.Db.error_to_string e)
      | Ok reopened ->
        check bool_ "same stats" true
          (Store.Db.stats db = Store.Db.stats reopened))

let test_missing_file_is_io_error () =
  match Store.Db.open_file "/nonexistent/tix/image.tix" with
  | Error (Store.Db.Io_error _) -> ()
  | Error e -> Alcotest.failf "wanted Io_error, got %s" (Store.Db.error_to_string e)
  | Ok _ -> Alcotest.fail "opened a missing file"

(* ------------------------------------------------------------------ *)
(* Resource governor *)

let paper_query =
  {|
  for $a in document("articles.xml")//article/descendant-or-self::*
  score $a using ScoreFoo($a, {"search engine"},
                          {"internet", "information retrieval"})
  pick $a using PickFoo()
  return <result>{$a}</result>
  sortby(score)
  threshold $a/@score > 0 stop after 5
  |}

let test_governor_tiny_step_budget () =
  let db = fresh_db () in
  let evaluator =
    Query.Eval.create ~limits:(Core.Governor.limits ~max_steps:5 ()) db
  in
  (match Query.Eval.run_string evaluator paper_query with
  | Ok _ -> Alcotest.fail "expected resource exhaustion"
  | Error msg ->
    check bool_ "typed message" true
      (String.length msg > 0
      && String.sub msg 0 (min 18 (String.length msg)) = "resource exhausted"))

let test_governor_tiny_deadline () =
  let db = fresh_db () in
  let evaluator =
    Query.Eval.create ~limits:(Core.Governor.limits ~timeout_s:0.0 ()) db
  in
  match Query.Eval.run_string evaluator paper_query with
  | Ok _ -> Alcotest.fail "expected deadline breach"
  | Error _ -> ()

let test_governor_tiny_result_cap () =
  let db = fresh_db () in
  let evaluator =
    Query.Eval.create ~limits:(Core.Governor.limits ~max_results:1 ()) db
  in
  match Query.Eval.run_string evaluator paper_query with
  | Ok _ -> Alcotest.fail "expected result-cap breach"
  | Error _ -> ()

let test_governor_ample_budget_is_transparent () =
  let db = fresh_db () in
  let ungoverned =
    match Query.Eval.run_string (Query.Eval.create db) paper_query with
    | Ok r -> r
    | Error msg -> Alcotest.failf "ungoverned run failed: %s" msg
  in
  let governed =
    let limits =
      Core.Governor.limits ~max_steps:10_000_000 ~timeout_s:3600.
        ~max_results:1_000_000 ()
    in
    match Query.Eval.run_string (Query.Eval.create ~limits db) paper_query with
    | Ok r -> r
    | Error msg -> Alcotest.failf "governed run failed: %s" msg
  in
  check bool_ "identical results" true (ungoverned = governed)

let test_governor_evaluator_survives_exhaustion () =
  (* one exhausted query must not poison the next *)
  let db = fresh_db () in
  let evaluator =
    Query.Eval.create ~limits:(Core.Governor.limits ~max_steps:100_000_000 ()) db
  in
  let tight = Query.Eval.create ~limits:(Core.Governor.limits ~max_steps:5 ()) db in
  (match Query.Eval.run_string tight paper_query with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error _ -> ());
  match Query.Eval.run_string evaluator paper_query with
  | Ok results -> check bool_ "subsequent query runs" true (results <> [])
  | Error msg -> Alcotest.failf "subsequent query failed: %s" msg

(* single-word phrases only, so the query compiles onto the engine *)
let engine_query =
  {|
  for $a in document("articles.xml")//article/descendant-or-self::*
  score $a using ScoreFoo($a, {"search"}, {"internet", "retrieval"})
  pick $a using PickFoo()
  return <result>{$a}</result>
  sortby(score)
  threshold $a/@score > 0 stop after 5
  |}

let test_governor_engine_path () =
  let db = fresh_db () in
  let q = Query.Parser.parse engine_query in
  let q = match q with Ok q -> q | Error _ -> Alcotest.fail "parse" in
  let plan =
    match Query.Compile.compile q with
    | Ok p -> p
    | Error reason -> Alcotest.failf "not compilable: %s" reason
  in
  let baseline = Query.Compile.execute db plan in
  (* tiny budget trips *)
  (match
     Query.Compile.execute ~limits:(Core.Governor.limits ~max_steps:1 ()) db plan
   with
  | _ -> Alcotest.fail "expected exhaustion on the engine path"
  | exception Core.Governor.Resource_exhausted v ->
    check bool_ "steps counted" true (v.Core.Governor.steps > 1));
  (* ample budget is transparent *)
  let governed =
    Query.Compile.execute
      ~limits:(Core.Governor.limits ~max_steps:10_000_000 ~max_results:1_000_000 ())
      db plan
  in
  check bool_ "engine results unchanged" true (baseline = governed)

let test_governor_algebra () =
  let c =
    List.init 64 (fun i ->
        Core.Stree.make ~score:(float_of_int i) ~id:(Core.Stree.Synthetic i)
          "node" [])
  in
  let plan = Core.Algebra.Sort (Core.Algebra.Scan c) in
  (* untripped *)
  let out =
    Core.Algebra.run
      ~governor:(Core.Governor.start (Core.Governor.limits ~max_steps:1_000 ()))
      plan
  in
  check int_ "all trees pass" 64 (List.length out);
  (* tripped by cardinality *)
  match
    Core.Algebra.run
      ~governor:(Core.Governor.start (Core.Governor.limits ~max_results:10 ()))
      plan
  with
  | _ -> Alcotest.fail "expected result-cap breach"
  | exception Core.Governor.Resource_exhausted v ->
    check bool_ "reason is the cap" true (v.Core.Governor.reason = Core.Governor.Results)

(* ------------------------------------------------------------------ *)
(* Error-isolated bulk load *)

let test_load_isolated_skips_and_reports () =
  let docs =
    List.to_seq
      [
        ("good1.xml", Ok (Xmlkit.Parser.parse_string_exn "<a><b>search</b></a>"));
        ("bad.xml", Error "parse error: line 1, column 3: boom");
        ("good2.xml", Ok (Xmlkit.Parser.parse_string_exn "<c>retrieval</c>"));
      ]
  in
  let db, report = Store.Db.load_isolated docs in
  check int_ "two loaded" 2 report.Store.Db.loaded;
  check int_ "one failed" 1 (List.length report.Store.Db.failed);
  let f = List.hd report.Store.Db.failed in
  check Alcotest.string "failed document named" "bad.xml" f.Store.Db.document;
  (* ids are dense over the survivors and the store is queryable *)
  check bool_ "good1 present" true (Store.Db.document_id db "good1.xml" = Some 0);
  check bool_ "good2 present" true (Store.Db.document_id db "good2.xml" = Some 1);
  check bool_ "bad absent" true (Store.Db.document_id db "bad.xml" = None);
  let results =
    Access.Term_join.to_list (Access.Ctx.of_db db) ~terms:[ "retrieval" ]
  in
  check bool_ "survivors are searchable" true (results <> [])

let test_load_isolated_all_good_matches_load () =
  let mk () = Workload.Paper_db.documents in
  let plain = Store.Db.of_documents (mk ()) in
  let isolated, report =
    Store.Db.load_isolated
      (List.to_seq (List.map (fun (n, d) -> (n, Ok d)) (mk ())))
  in
  check int_ "nothing failed" 0 (List.length report.Store.Db.failed);
  check bool_ "same stats" true (Store.Db.stats plain = Store.Db.stats isolated)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fault"
    [
      ( "injector",
        [
          tc "deterministic" `Quick test_fault_deterministic;
          tc "zero rates healthy" `Quick test_fault_zero_rates_healthy;
          tc "corruption permanent" `Quick test_fault_corruption_permanent;
          tc "corrupt changes bytes" `Quick test_fault_corrupt_changes_bytes;
        ] );
      ( "pager",
        [
          tc "retries transients" `Quick test_pager_retries_transients;
          tc "transient exhausted" `Quick test_pager_transient_exhausted;
          tc "detects corruption" `Quick test_pager_detects_corruption;
          tc "out of bounds message" `Quick test_pager_out_of_bounds_message;
          tc "hits unaffected" `Quick test_pager_fault_free_hits_unaffected;
        ] );
      ( "access methods",
        [
          tc "termjoin sweep" `Quick test_term_join_under_faults;
          tc "enhanced sweep" `Quick test_term_join_enhanced_under_faults;
          tc "genmeet sweep" `Quick test_gen_meet_under_faults;
          tc "phrasefinder sweep" `Quick test_phrase_finder_under_faults;
          tc "transients always recover" `Quick
            test_transient_only_faults_always_recover;
          tc "full corruption never crashes" `Quick
            test_full_corruption_never_crashes;
        ] );
      ( "image corruption",
        [
          tc "pristine reopens" `Quick test_pristine_image_reopens;
          tc "byte-flip sweep" `Quick test_corruption_sweep_byte_flips;
          tc "truncation sweep" `Quick test_corruption_sweep_truncation;
          tc "right error variant" `Quick test_corruption_reports_right_variant;
          tc "missing file" `Quick test_missing_file_is_io_error;
        ] );
      ( "governor",
        [
          tc "tiny step budget" `Quick test_governor_tiny_step_budget;
          tc "tiny deadline" `Quick test_governor_tiny_deadline;
          tc "tiny result cap" `Quick test_governor_tiny_result_cap;
          tc "ample budget transparent" `Quick
            test_governor_ample_budget_is_transparent;
          tc "evaluator survives" `Quick test_governor_evaluator_survives_exhaustion;
          tc "engine path" `Quick test_governor_engine_path;
          tc "algebra operators" `Quick test_governor_algebra;
        ] );
      ( "isolated load",
        [
          tc "skips and reports" `Quick test_load_isolated_skips_and_reports;
          tc "all-good equals load" `Quick test_load_isolated_all_good_matches_load;
        ] );
    ]
