(* Tests for the storage substrate: pager, element store, parent
   index, histogram and the Db facade. *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Pager *)

let test_pager_basics () =
  let pager = Store.Pager.create ~page_size:64 () in
  let id0 = Store.Pager.append_page pager (Bytes.of_string "page-zero") in
  let id1 = Store.Pager.append_page pager (Bytes.of_string "page-one") in
  check int_ "ids dense" 0 id0;
  check int_ "ids dense" 1 id1;
  check string_ "contents" "page-zero"
    (Bytes.to_string (Store.Pager.read_page pager 0));
  check string_ "contents" "page-one"
    (Bytes.to_string (Store.Pager.read_page pager 1))

let test_pager_stats () =
  let pager = Store.Pager.create ~pool_pages:8 ~page_size:16 () in
  for i = 0 to 3 do
    ignore (Store.Pager.append_page pager (Bytes.make 16 (Char.chr (65 + i))))
  done;
  ignore (Store.Pager.read_page pager 0);
  ignore (Store.Pager.read_page pager 0);
  ignore (Store.Pager.read_page pager 1);
  let s = Store.Pager.stats pager in
  check int_ "reads" 3 s.Store.Pager.reads;
  check int_ "misses" 2 s.Store.Pager.misses;
  check int_ "bytes" 32 s.Store.Pager.bytes_transferred;
  Store.Pager.reset_stats pager;
  check int_ "reset" 0 (Store.Pager.stats pager).Store.Pager.reads

let test_pager_eviction () =
  let pager = Store.Pager.create ~pool_pages:2 ~page_size:8 () in
  for i = 0 to 3 do
    ignore (Store.Pager.append_page pager (Bytes.make 8 (Char.chr (48 + i))))
  done;
  (* fill pool with 0 and 1, then read 2: one of them is evicted *)
  ignore (Store.Pager.read_page pager 0);
  ignore (Store.Pager.read_page pager 1);
  ignore (Store.Pager.read_page pager 2);
  Store.Pager.reset_stats pager;
  (* page 1 was more recent than 0, so 0 was evicted *)
  ignore (Store.Pager.read_page pager 1);
  check int_ "hit on recent page" 0 (Store.Pager.stats pager).Store.Pager.misses;
  ignore (Store.Pager.read_page pager 0);
  check int_ "miss on evicted page" 1 (Store.Pager.stats pager).Store.Pager.misses

let test_pager_clear_pool () =
  let pager = Store.Pager.create ~page_size:8 () in
  ignore (Store.Pager.append_page pager (Bytes.make 8 'x'));
  ignore (Store.Pager.read_page pager 0);
  Store.Pager.clear_pool pager;
  Store.Pager.reset_stats pager;
  ignore (Store.Pager.read_page pager 0);
  check int_ "cold after clear" 1 (Store.Pager.stats pager).Store.Pager.misses

(* ------------------------------------------------------------------ *)
(* Element record codec *)

let sample_rec =
  {
    Store.Element_rec.doc = 3;
    start = 10;
    end_ = 42;
    level = 2;
    parent = 4;
    child_count = 5;
    tag = 7;
    word_count = 11;
    text = "some words";
  }

let test_element_rec_roundtrip () =
  let buf = Buffer.create 64 in
  Store.Element_rec.encode buf sample_rec;
  let decoded, off = Store.Element_rec.decode ~doc:3 (Buffer.to_bytes buf) 0 in
  check bool_ "roundtrip" true (decoded = sample_rec);
  check int_ "consumed all" (Buffer.length buf) off

let test_element_rec_meta () =
  let buf = Buffer.create 64 in
  Store.Element_rec.encode buf sample_rec;
  let decoded, off = Store.Element_rec.decode_meta ~doc:3 (Buffer.to_bytes buf) 0 in
  check string_ "text skipped" "" decoded.Store.Element_rec.text;
  check int_ "same offset" (Buffer.length buf) off;
  check int_ "other fields" 42 decoded.Store.Element_rec.end_

let test_element_rec_root () =
  let root = { sample_rec with parent = -1 } in
  let buf = Buffer.create 64 in
  Store.Element_rec.encode buf root;
  let decoded, _ = Store.Element_rec.decode ~doc:3 (Buffer.to_bytes buf) 0 in
  check int_ "root parent" (-1) decoded.Store.Element_rec.parent

(* ------------------------------------------------------------------ *)
(* Element store *)

let make_store ?(page_size = 128) records =
  let b = Store.Element_store.builder ~page_size () in
  List.iter (Store.Element_store.add b) records;
  Store.Element_store.freeze b

let rec_ ~doc ~start ~end_ ?(level = 0) ?(parent = -1) ?(children = 0)
    ?(tag = 0) ?(text = "") () =
  {
    Store.Element_rec.doc;
    start;
    end_;
    level;
    parent;
    child_count = children;
    tag;
    word_count = 0;
    text;
  }

let sample_records =
  [
    rec_ ~doc:0 ~start:0 ~end_:20 ~children:2 ~text:"root text" ();
    rec_ ~doc:0 ~start:1 ~end_:9 ~level:1 ~parent:0 ~text:"first child" ();
    rec_ ~doc:0 ~start:10 ~end_:19 ~level:1 ~parent:0 ~text:"second child" ();
    rec_ ~doc:1 ~start:0 ~end_:5 ~text:"another doc" ();
    rec_ ~doc:2 ~start:0 ~end_:3 ~text:"third" ();
  ]

let test_store_get () =
  let store = make_store sample_records in
  check int_ "element count" 5 (Store.Element_store.element_count store);
  check int_ "documents" 3 (Store.Element_store.document_count store);
  (match Store.Element_store.get store ~doc:0 ~start:10 with
  | Some r -> check int_ "end key" 19 r.Store.Element_rec.end_
  | None -> Alcotest.fail "expected record");
  check bool_ "missing" true (Store.Element_store.get store ~doc:0 ~start:5 = None);
  check bool_ "missing doc" true (Store.Element_store.get store ~doc:9 ~start:0 = None)

let test_store_get_text () =
  let store = make_store sample_records in
  check (Alcotest.option string_) "text" (Some "second child")
    (Store.Element_store.get_text store ~doc:0 ~start:10)

let test_store_scan () =
  let store = make_store sample_records in
  let seen = ref [] in
  Store.Element_store.scan store (fun r ->
      seen := (r.Store.Element_rec.doc, r.Store.Element_rec.start) :: !seen);
  check
    (Alcotest.list (Alcotest.pair int_ int_))
    "scan order"
    [ (0, 0); (0, 1); (0, 10); (1, 0); (2, 0) ]
    (List.rev !seen)

let test_store_scan_doc () =
  let store = make_store sample_records in
  let seen = ref 0 in
  Store.Element_store.scan_doc store ~doc:0 (fun _ -> incr seen);
  check int_ "doc 0 records" 3 !seen;
  seen := 0;
  Store.Element_store.scan_doc store ~doc:1 (fun _ -> incr seen);
  check int_ "doc 1 records" 1 !seen

let test_store_subtree_texts () =
  let store = make_store sample_records in
  check (Alcotest.list string_) "subtree"
    [ "root text"; "first child"; "second child" ]
    (Store.Element_store.subtree_texts store ~doc:0 ~start:0 ~end_:20);
  check (Alcotest.list string_) "inner" [ "first child" ]
    (Store.Element_store.subtree_texts store ~doc:0 ~start:1 ~end_:9)

let test_store_small_pages () =
  (* tiny pages force many page boundaries *)
  let records =
    List.init 50 (fun i ->
        rec_ ~doc:(i / 10) ~start:(i mod 10 * 3) ~end_:((i mod 10 * 3) + 2)
          ~text:(Printf.sprintf "text-%d" i) ())
  in
  let store = make_store ~page_size:32 records in
  check int_ "all stored" 50 (Store.Element_store.element_count store);
  List.iteri
    (fun i (r : Store.Element_rec.t) ->
      match Store.Element_store.get_text store ~doc:r.doc ~start:r.start with
      | Some text ->
        check string_ (Printf.sprintf "text %d" i)
          (Printf.sprintf "text-%d" i)
          text
      | None -> Alcotest.failf "record %d missing" i)
    records

let test_store_order_enforced () =
  let b = Store.Element_store.builder () in
  Store.Element_store.add b (rec_ ~doc:0 ~start:5 ~end_:6 ());
  Alcotest.check_raises "out of order"
    (Invalid_argument "Element_store.add: records out of order") (fun () ->
      Store.Element_store.add b (rec_ ~doc:0 ~start:2 ~end_:3 ()))

(* ------------------------------------------------------------------ *)
(* Parent index *)

let test_parent_index () =
  let b = Store.Parent_index.builder () in
  let entry ~parent ~children ~level ~end_ ~tag =
    { Store.Parent_index.parent; child_count = children; level; end_; tag }
  in
  Store.Parent_index.add b ~doc:0 ~start:0
    (entry ~parent:(-1) ~children:2 ~level:0 ~end_:20 ~tag:0);
  Store.Parent_index.add b ~doc:0 ~start:1
    (entry ~parent:0 ~children:0 ~level:1 ~end_:9 ~tag:1);
  Store.Parent_index.add b ~doc:0 ~start:10
    (entry ~parent:0 ~children:0 ~level:1 ~end_:19 ~tag:1);
  Store.Parent_index.add b ~doc:1 ~start:0
    (entry ~parent:(-1) ~children:0 ~level:0 ~end_:5 ~tag:2);
  let idx = Store.Parent_index.freeze b in
  check int_ "entries" 4 (Store.Parent_index.entry_count idx);
  (match Store.Parent_index.find idx ~doc:0 ~start:10 with
  | Some e ->
    check int_ "parent" 0 e.Store.Parent_index.parent;
    check int_ "end" 19 e.Store.Parent_index.end_
  | None -> Alcotest.fail "expected entry");
  check (Alcotest.option int_) "parent_of" (Some 0)
    (Store.Parent_index.parent_of idx ~doc:0 ~start:1);
  check (Alcotest.option int_) "root parent" None
    (Store.Parent_index.parent_of idx ~doc:1 ~start:0);
  check bool_ "missing" true (Store.Parent_index.find idx ~doc:0 ~start:7 = None);
  check bool_ "missing doc" true (Store.Parent_index.find idx ~doc:5 ~start:0 = None)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_counts () =
  let h = Store.Histogram.create ~buckets:10 ~lo:0. ~hi:10. () in
  List.iter (Store.Histogram.add h) [ 0.5; 1.5; 2.5; 9.5; 9.9 ];
  check int_ "total" 5 (Store.Histogram.total h);
  check int_ "above 9" 2 (Store.Histogram.count_above h 9.);
  check int_ "above hi" 0 (Store.Histogram.count_above h 10.);
  check int_ "below lo" 5 (Store.Histogram.count_above h (-1.))

let test_histogram_threshold () =
  let values = List.init 100 (fun i -> float_of_int i) in
  let h = Store.Histogram.of_values ~buckets:100 values in
  let t = Store.Histogram.threshold_for_top h 10 in
  let above = List.length (List.filter (fun v -> v > t) values) in
  check bool_ "top-10 threshold" true (above >= 10 && above <= 12);
  check (Alcotest.float 1e-6) "everything" 0.
    (Store.Histogram.threshold_for_top h 1000)

let test_histogram_quantile () =
  let values = List.init 1000 (fun i -> float_of_int i /. 10.) in
  let h = Store.Histogram.of_values ~buckets:64 values in
  let q = Store.Histogram.quantile h 0.5 in
  check bool_ "median approx" true (q > 40. && q < 60.)

(* ------------------------------------------------------------------ *)
(* Db facade *)

let db = lazy (Store.Db.of_documents Workload.Paper_db.documents)

let test_db_stats () =
  let db = Lazy.force db in
  let s = Store.Db.stats db in
  check int_ "documents" 3 s.Store.Db.documents;
  (* articles.xml has 24 elements; review 1 has 7; review 2 has 5 *)
  check int_ "elements" 36 s.Store.Db.elements;
  check bool_ "terms indexed" true (s.Store.Db.distinct_terms > 20);
  check bool_ "occurrences" true (s.Store.Db.occurrences > 50)

let test_db_term_lookup () =
  let db = Lazy.force db in
  let idx = Store.Db.index db in
  check int_ "internet twice" 2 (Ir.Inverted_index.collection_freq idx "internet");
  (* "search": a11, a13, a18, a19, a20 *)
  check int_ "search occurrences" 5
    (Ir.Inverted_index.collection_freq idx "search")

let test_db_subtree () =
  let db = Lazy.force db in
  (* root of document 0 *)
  match Store.Db.subtree db ~doc:0 ~start:0 with
  | Some e -> check string_ "root tag" "article" e.Xmlkit.Tree.tag
  | None -> Alcotest.fail "expected root subtree"

let test_db_tag_of () =
  let db = Lazy.force db in
  check (Alcotest.option string_) "root tag" (Some "article")
    (Store.Db.tag_of db ~doc:0 ~start:0)

let test_db_word_positions_inside_intervals () =
  let db = Lazy.force db in
  let idx = Store.Db.index db in
  let elements = Store.Db.elements db in
  (* every occurrence's position lies strictly inside its owner's
     interval *)
  let ok = ref true in
  (match Ir.Inverted_index.lookup idx "search" with
  | None -> ok := false
  | Some p ->
    Ir.Postings.iter
      (fun (occ : Ir.Postings.occ) ->
        match Store.Element_store.get elements ~doc:occ.doc ~start:occ.node with
        | Some r ->
          if not (occ.pos > r.Store.Element_rec.start && occ.pos < r.Store.Element_rec.end_)
          then ok := false
        | None -> ok := false)
      p);
  check bool_ "positions inside owner intervals" true !ok

let test_db_no_trees_option () =
  let options = { Store.Db.default_options with keep_trees = false } in
  let db = Store.Db.of_documents ~options Workload.Paper_db.documents in
  check bool_ "no subtree" true (Store.Db.subtree db ~doc:0 ~start:0 = None);
  check int_ "still loaded" 3 (Store.Db.stats db).Store.Db.documents


(* model-based check: the pool never serves stale data and respects
   its capacity; a reference LRU model predicts hits and misses *)
let test_pager_lru_model =
  QCheck.Test.make ~name:"pager matches reference LRU model" ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (QCheck.Gen.int_range 1 60) (int_bound 9)))
    (fun (capacity, accesses) ->
      let pager = Store.Pager.create ~pool_pages:capacity ~page_size:4 () in
      for i = 0 to 9 do
        ignore (Store.Pager.append_page pager (Bytes.make 4 (Char.chr (48 + i))))
      done;
      (* reference model: list of page ids, most recent first *)
      let model = ref [] in
      let expected_misses = ref 0 in
      List.iter
        (fun page ->
          if List.mem page !model then
            model := page :: List.filter (fun p -> p <> page) !model
          else begin
            incr expected_misses;
            let kept =
              List.filteri (fun i _ -> i < capacity - 1) !model
            in
            model := page :: kept
          end)
        accesses;
      let ok_data =
        List.for_all
          (fun page ->
            Bytes.to_string (Store.Pager.read_page pager page)
            = String.make 4 (Char.chr (48 + page)))
          accesses
      in
      (* replay for stats on a fresh pager (reads above polluted it) *)
      let pager2 = Store.Pager.create ~pool_pages:capacity ~page_size:4 () in
      for i = 0 to 9 do
        ignore (Store.Pager.append_page pager2 (Bytes.make 4 (Char.chr (48 + i))))
      done;
      List.iter (fun page -> ignore (Store.Pager.read_page pager2 page)) accesses;
      let stats = Store.Pager.stats pager2 in
      ok_data && stats.Store.Pager.misses = !expected_misses)

let gen_element_rec =
  QCheck.Gen.(
    map
      (fun ((doc, start, span), (level, parent, children), (tag, words), text) ->
        {
          Store.Element_rec.doc;
          start;
          end_ = start + 1 + span;
          level;
          parent = parent - 1;
          child_count = children;
          tag;
          word_count = words;
          text;
        })
      (quad
         (triple (int_bound 100) (int_bound 10000) (int_bound 1000))
         (triple (int_bound 40) (int_bound 10000) (int_bound 50))
         (pair (int_bound 200) (int_bound 500))
         (string_size ~gen:(char_range 'a' 'z') (0 -- 30))))

let test_element_rec_property =
  QCheck.Test.make ~name:"element record roundtrip (random)" ~count:500
    (QCheck.make gen_element_rec) (fun r ->
      let buf = Buffer.create 64 in
      Store.Element_rec.encode buf r;
      let decoded, off =
        Store.Element_rec.decode ~doc:r.Store.Element_rec.doc
          (Buffer.to_bytes buf) 0
      in
      decoded = r && off = Buffer.length buf)

let test_histogram_count_above_property =
  QCheck.Test.make ~name:"histogram count_above is an upper bound" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 50) (float_range 0. 10.))
        (float_range 0. 10.))
    (fun (values, cut) ->
      let h = Store.Histogram.of_values ~buckets:32 values in
      let exact = List.length (List.filter (fun v -> v > cut) values) in
      Store.Histogram.count_above h cut >= exact)


(* ------------------------------------------------------------------ *)
(* Persistence *)

let test_db_save_open () =
  let db = Lazy.force db in
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      let reopened = Store.Db.open_file_exn path in
      let s1 = Store.Db.stats db and s2 = Store.Db.stats reopened in
      check bool_ "same stats" true (s1 = s2);
      (* element records identical *)
      let dump d =
        let acc = ref [] in
        Store.Element_store.scan ~with_text:true (Store.Db.elements d)
          (fun r -> acc := r :: !acc);
        List.rev !acc
      in
      check bool_ "same records" true (dump db = dump reopened);
      (* index identical *)
      check int_ "term freq preserved" 5
        (Ir.Inverted_index.collection_freq (Store.Db.index reopened) "search");
      (* parent index rebuilt *)
      check (Alcotest.option int_) "parent rebuilt" (Some 0)
        (Store.Parent_index.parent_of (Store.Db.parents reopened) ~doc:0 ~start:1);
      (* tag index rebuilt *)
      (match Store.Catalog.tag_id (Store.Db.catalog reopened) "chapter" with
      | Some id ->
        check int_ "tag index rebuilt" 3
          (Store.Tag_index.count (Store.Db.tags reopened) ~tag:id)
      | None -> Alcotest.fail "chapter tag missing");
      (* no trees after reopen *)
      check bool_ "no trees" true
        (Store.Db.subtree reopened ~doc:0 ~start:0 = None))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let test_db_stats_section () =
  (* the stats section is the image's sixth: saved, loaded on open
     and equal to the statistics computed from a scan. A header that
     frames only the first five sections (the layout written before
     the section existed) is a typed error on either open path. *)
  let db = Lazy.force db in
  let path = Filename.temp_file "tix" ".db" in
  let path5 = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove path5)
    (fun () ->
      let s = Store.Db.collection_stats db in
      check bool_ "elements counted" true (s.Ir.Stats.elements > 0);
      check int_ "stats agree with store"
        (Store.Db.stats db).Store.Db.elements s.Ir.Stats.elements;
      Store.Db.save db path;
      let image = read_file path in
      (* the framed section count is the varint right after the
         magic; it fits one byte *)
      check int_ "six sections" 6 (Char.code image.[8]);
      let reopened = Store.Db.open_file_exn path in
      check bool_ "persisted stats equal computed" true
        (Store.Db.collection_stats reopened = s);
      (* walk the framing to the end of the fifth section *)
      let bytes = Bytes.of_string image in
      let rec section_end i off =
        if i = 5 then off
        else
          let _id, off = Ir.Codec.read_varint bytes off in
          let len, off = Ir.Codec.read_varint bytes off in
          section_end (i + 1) (off + 4 + len)
      in
      let cut = section_end 0 9 in
      write_file path5 (String.sub image 0 8 ^ "\005" ^ String.sub image 9 (cut - 9));
      List.iter
        (fun verify ->
          match Store.Db.open_file ~verify path5 with
          | Error (Store.Db.Corrupt _) -> ()
          | Error e ->
            Alcotest.failf "five-section header: wanted Corrupt, got %s"
              (Store.Db.error_to_string e)
          | Ok _ -> Alcotest.fail "five-section header accepted")
        [ `Eager; `Lazy ])

let test_db_open_rejects_garbage () =
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a database";
      close_out oc;
      match Store.Db.open_file path with
      | Ok _ -> Alcotest.fail "expected a failure"
      | Error (Store.Db.Not_a_database _) -> ()
      | Error e ->
        Alcotest.failf "expected Not_a_database, got: %s"
          (Store.Db.error_to_string e))

let test_persistence_query_agreement () =
  (* access methods give identical results on the reopened image *)
  let db = Lazy.force db in
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      let reopened = Store.Db.open_file_exn path in
      let run d =
        Access.Term_join.to_list (Access.Ctx.of_db d)
          ~terms:[ "search"; "retrieval" ]
      in
      check bool_ "same scored nodes" true (run db = run reopened))

let test_db_v3_unsupported () =
  (* TIXDB003 images are not read: the magic is recognized as a TIX
     image of another version and refused with a typed error *)
  let db = Lazy.force db in
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      let image = read_file path in
      write_file path ("TIXDB003" ^ String.sub image 8 (String.length image - 8));
      List.iter
        (fun verify ->
          match Store.Db.open_file ~verify path with
          | Error (Store.Db.Unsupported_version { found; _ }) ->
            check string_ "found version" "TIXDB003" found
          | Error e ->
            Alcotest.failf "wanted Unsupported_version, got %s"
              (Store.Db.error_to_string e)
          | Ok _ -> Alcotest.fail "TIXDB003 image accepted")
        [ `Eager; `Lazy ])

let test_db_mapped_lazy_pages () =
  (* a mapped image materializes element pages on first touch only;
     the pager is born pinned (no verification scan needed) *)
  let db = Lazy.force db in
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      let mapped = Store.Db.open_file_exn path in
      let pager = Store.Element_store.pager (Store.Db.elements mapped) in
      (match Store.Pager.pin pager with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "pin on mapped pager: %a" Store.Pager.pp_read_error e);
      let s0 = Store.Pager.stats pager in
      check int_ "no pages touched yet" 0 s0.Store.Pager.misses;
      ignore (Store.Pager.read_page pager 0);
      ignore (Store.Pager.read_page pager 0);
      let s1 = Store.Pager.stats pager in
      check int_ "one materialization" 1 s1.Store.Pager.misses;
      check int_ "both reads counted" 2 s1.Store.Pager.reads;
      (* a mapped pager is an immutable snapshot *)
      Alcotest.check_raises "append rejected"
        (Invalid_argument "Pager.append_page: image-backed pager is immutable")
        (fun () -> ignore (Store.Pager.append_page pager (Bytes.create 1))))

let test_db_lazy_verify () =
  (* a lazy open serves immediately with the CRC pass still pending,
     answers identically to an eager open, and the background scan
     lands `Verified on an intact image *)
  let db = Lazy.force db in
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      check bool_ "in-memory db is verified" true
        (Store.Db.verification db = `Verified);
      let eager = Store.Db.open_file_exn ~verify:`Eager path in
      check bool_ "eager open is verified" true
        (Store.Db.verification eager = `Verified);
      let lazy_db = Store.Db.open_file_exn ~verify:`Lazy path in
      (* usable before the verdict: same answers as the eager open *)
      let run d =
        Access.Term_join.to_list (Access.Ctx.of_db d)
          ~terms:[ "search"; "retrieval" ]
      in
      check bool_ "lazy open agrees" true (run eager = run lazy_db);
      (match Store.Db.await_verification lazy_db with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "background verify failed: %s"
          (Store.Db.error_to_string e));
      check bool_ "verdict lands Verified" true
        (Store.Db.verification lazy_db = `Verified);
      (* awaiting again is immediate and stable *)
      check bool_ "await idempotent" true
        (Store.Db.await_verification lazy_db = Ok ()))

let test_db_lazy_verify_corruption () =
  (* flip one payload byte: the eager open refuses, the lazy open
     serves (framing is intact) but its background scan lands
     `Failed with the checksum error *)
  let db = Lazy.force db in
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      let size = (Unix.stat path).Unix.st_size in
      let off = size / 2 in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let b = Bytes.create 1 in
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1));
      (match Store.Db.open_file ~verify:`Eager path with
      | Ok _ -> Alcotest.fail "eager open accepted a corrupt image"
      | Error (Store.Db.Checksum_mismatch _) -> ()
      | Error e ->
        Alcotest.failf "expected Checksum_mismatch, got: %s"
          (Store.Db.error_to_string e));
      match Store.Db.open_file ~verify:`Lazy path with
      | Error e ->
        Alcotest.failf "lazy open refused a structurally sound image: %s"
          (Store.Db.error_to_string e)
      | Ok lazy_db ->
        (match Store.Db.await_verification lazy_db with
        | Ok () -> Alcotest.fail "background verify missed the corruption"
        | Error (Store.Db.Checksum_mismatch _) -> ()
        | Error e ->
          Alcotest.failf "expected Checksum_mismatch, got: %s"
            (Store.Db.error_to_string e));
        match Store.Db.verification lazy_db with
        | `Failed (Store.Db.Checksum_mismatch _) -> ()
        | `Failed e ->
          Alcotest.failf "expected Checksum_mismatch, got: %s"
            (Store.Db.error_to_string e)
        | `Verified | `Pending -> Alcotest.fail "verdict not Failed")

(* ------------------------------------------------------------------ *)
(* Oracles: the merge against a load of the surviving documents, the
   checksum against the byte-at-a-time table *)

(* A database decoded by name: the catalog, each document's records
   (tag names, text), the parent and tag indexes, each term's
   occurrences and doc freq, and the collection statistics. Tag ids
   differ between a merge and a load, and a merge may keep a tag that
   no live element carries, so tags appear by name and only with
   elements. *)
type synopsis = Syn of string * int * int * synopsis list

let decoded db =
  let catalog = Store.Db.catalog db in
  let tag_name = Store.Catalog.tag_name catalog in
  let docs = List.init (Store.Catalog.document_count catalog) Fun.id in
  let records =
    List.map
      (fun doc ->
        let acc = ref [] in
        Store.Element_store.scan_doc (Store.Db.elements db) ~doc ~with_text:true
          (fun (r : Store.Element_rec.t) ->
            let p = Store.Parent_index.find (Store.Db.parents db) ~doc ~start:r.start in
            acc :=
              ( (r.start, r.end_, r.level, r.parent),
                (r.child_count, tag_name r.tag, r.word_count, r.text),
                Option.map
                  (fun (e : Store.Parent_index.entry) ->
                    (e.parent, e.child_count, e.level, e.end_, tag_name e.tag))
                  p )
              :: !acc);
        (Store.Catalog.document_name catalog doc, List.rev !acc))
      docs
  in
  let tags =
    List.init (Store.Catalog.tag_count catalog) (fun tag ->
        ( tag_name tag,
          Array.to_list
            (Array.map
               (fun (i : Store.Tag_index.item) -> (i.doc, i.start, i.end_, i.level))
               (Store.Tag_index.nodes (Store.Db.tags db) ~tag)) ))
    |> List.filter (fun (_, items) -> items <> [])
    |> List.sort compare
  in
  let index = Store.Db.index db in
  let dict = Ir.Inverted_index.dictionary index in
  let terms =
    List.init (Ir.Inverted_index.stats index).distinct_terms (fun id ->
        let term = Ir.Dictionary.term dict id in
        let occs =
          match Ir.Inverted_index.lookup index term with
          | Some p -> Ir.Postings.to_list p
          | None -> []
        in
        (term, Ir.Inverted_index.doc_freq index term, occs))
    |> List.sort compare
  in
  let st = Store.Db.collection_stats db in
  let rec synopsis (n : Ir.Stats.syn_node) =
    Syn (tag_name n.syn_tag, n.syn_count, n.syn_size, List.map synopsis n.syn_children)
  in
  let stats =
    ( (st.documents, st.elements, st.occurrences, st.distinct_terms, st.depth_sum),
      List.sort compare
        (List.filter_map
           (fun tag ->
             match Ir.Stats.tag_count st ~tag with
             | 0 -> None
             | n -> Some (tag_name tag, n))
           (List.init (Array.length st.tag_counts) Fun.id)),
      (List.map synopsis st.synopsis, st.synopsis_nodes, st.synopsis_complete) )
  in
  (records, tags, terms, stats, Store.Db.stats db)

let gen_document ~tags ~words =
  QCheck.Gen.(
    let text = map (String.concat " ") (list_size (1 -- 3) (oneofl words)) in
    fix
      (fun self depth ->
        oneofl tags >>= fun tag ->
        list_size (0 -- 3)
          (if depth = 0 then map Xmlkit.Tree.text text
           else
             frequency
               [
                 (1, map Xmlkit.Tree.text text);
                 (2, map (fun e -> Xmlkit.Tree.Element e) (self (depth - 1)));
               ])
        >|= Xmlkit.Tree.elem tag)
      3)

(* base and delta documents, a tombstone set and the load options;
   delta documents may carry tags and terms the base lacks *)
let gen_merge_case =
  QCheck.Gen.(
    let base_tags = [ "a"; "b"; "c"; "d" ] and delta_tags = [ "a"; "c"; "e"; "f" ] in
    let base_words = List.init 8 (Printf.sprintf "w%d") in
    let delta_words = List.init 8 (fun i -> Printf.sprintf "w%d" (i + 4)) in
    let named prefix docs = List.mapi (fun i d -> (Printf.sprintf "%s%d.xml" prefix i, d)) docs in
    list_size (1 -- 6) (gen_document ~tags:base_tags ~words:base_words) >>= fun base ->
    let n = List.length base in
    oneof
      [
        return (Array.make n false);
        return (Array.init n (fun d -> d = 0));
        return (Array.init n (fun d -> d = n - 1));
        return (Array.make n true);
        map Array.of_list (list_repeat n bool);
      ]
    >>= fun dead ->
    opt (list_size (1 -- 3) (gen_document ~tags:delta_tags ~words:delta_words))
    >>= fun delta ->
    pair bool (oneofl [ 48; 256; Store.Pager.default_page_size ]) >|= fun (stem, page_size) ->
    ( { Store.Db.default_options with stem; page_size },
      named "base" base,
      dead,
      Option.map (named "delta") delta ))

let print_merge_case (options, base, dead, delta) =
  let docs l =
    String.concat "\n"
      (List.map (fun (n, d) -> n ^ ": " ^ Xmlkit.Printer.to_string d) l)
  in
  Printf.sprintf "stem=%b page_size=%d\nbase:\n%s\ndead: %s\ndelta:\n%s"
    options.Store.Db.stem options.Store.Db.page_size (docs base)
    (String.concat "," (Array.to_list (Array.map string_of_bool dead)))
    (match delta with None -> "none" | Some l -> docs l)

let test_compact_equals_load =
  QCheck.Test.make ~name:"compact = load of the surviving documents" ~count:150
    (QCheck.make ~print:print_merge_case gen_merge_case)
    (fun (options, base_docs, dead, delta_docs) ->
      let base = Store.Db.of_documents ~options base_docs in
      let delta = Option.map (Store.Db.of_documents ~options) delta_docs in
      let merged = Store.Db.compact ~base ~delta ~tombstones:dead in
      let survivors =
        List.filteri (fun d _ -> not dead.(d)) base_docs
        @ Option.value ~default:[] delta_docs
      in
      let expected = decoded (Store.Db.of_documents ~options survivors) in
      let path = Filename.temp_file "tix_merge" ".tix" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Store.Db.save merged path;
          decoded merged = expected
          && decoded (Store.Db.open_file_exn path) = expected))

let test_empty_index_reopens () =
  (* an image whose index holds no term reopens with an empty
     dictionary, not one holding the empty string *)
  let db = Store.Db.of_documents [ ("empty.xml", Xmlkit.Tree.elem "a" []) ] in
  let path = Filename.temp_file "tix" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Db.save db path;
      let index = Store.Db.index (Store.Db.open_file_exn path) in
      check int_ "no terms" 0 (Ir.Dictionary.size (Ir.Inverted_index.dictionary index));
      check bool_ "nothing to rank" true (Ir.Inverted_index.terms_by_freq index = []))

(* CRC-32 one byte at a time, straight from the IEEE polynomial *)
let reference_crc32 s off len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let test_crc32_check_value () =
  check int_ "CRC-32 of 123456789" 0xCBF43926 (Store.Crc32.string "123456789");
  check int_ "empty" 0 (Store.Crc32.string "")

let test_crc32_matches_reference =
  QCheck.Test.make ~name:"slicing-by-8 = byte-at-a-time" ~count:300
    QCheck.(
      pair (string_of_size (QCheck.Gen.int_range 0 300)) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let map = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
      String.iteri (fun i c -> map.{i} <- c) s;
      let expected = reference_crc32 s off len in
      Store.Crc32.string ~off ~len s = expected
      && Store.Crc32.bytes ~off ~len (Bytes.of_string s) = expected
      && Store.Crc32.buf ~off ~len (Ir.Codec.M map) = expected
      && Store.Crc32.buf ~off ~len (Ir.Codec.B (Bytes.of_string s)) = expected
      && Store.Crc32.string s = reference_crc32 s 0 n
      && Store.Crc32.extend (Store.Crc32.string ~len:off s) (String.sub s off (n - off))
         = reference_crc32 s 0 n)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "store"
    [
      ( "pager",
        [
          tc "basics" `Quick test_pager_basics;
          tc "stats" `Quick test_pager_stats;
          tc "eviction" `Quick test_pager_eviction;
          tc "clear pool" `Quick test_pager_clear_pool;
          QCheck_alcotest.to_alcotest test_pager_lru_model;
        ] );
      ( "element_rec",
        [
          tc "roundtrip" `Quick test_element_rec_roundtrip;
          tc "meta decode" `Quick test_element_rec_meta;
          tc "root parent" `Quick test_element_rec_root;
          QCheck_alcotest.to_alcotest test_element_rec_property;
        ] );
      ( "element_store",
        [
          tc "get" `Quick test_store_get;
          tc "get text" `Quick test_store_get_text;
          tc "scan" `Quick test_store_scan;
          tc "scan doc" `Quick test_store_scan_doc;
          tc "subtree texts" `Quick test_store_subtree_texts;
          tc "small pages" `Quick test_store_small_pages;
          tc "order enforced" `Quick test_store_order_enforced;
        ] );
      ("parent_index", [ tc "find" `Quick test_parent_index ]);
      ( "histogram",
        [
          tc "counts" `Quick test_histogram_counts;
          tc "threshold" `Quick test_histogram_threshold;
          tc "quantile" `Quick test_histogram_quantile;
          QCheck_alcotest.to_alcotest test_histogram_count_above_property;
        ] );
      ( "db",
        [
          tc "stats" `Quick test_db_stats;
          tc "term lookup" `Quick test_db_term_lookup;
          tc "subtree" `Quick test_db_subtree;
          tc "tag_of" `Quick test_db_tag_of;
          tc "positions inside intervals" `Quick
            test_db_word_positions_inside_intervals;
          tc "keep_trees off" `Quick test_db_no_trees_option;
        ] );
      ( "persistence",
        [
          tc "save and reopen" `Quick test_db_save_open;
          tc "stats section" `Quick test_db_stats_section;
          tc "rejects garbage" `Quick test_db_open_rejects_garbage;
          tc "query agreement" `Quick test_persistence_query_agreement;
          tc "v3 image unsupported" `Quick test_db_v3_unsupported;
          tc "mapped lazy pages" `Quick test_db_mapped_lazy_pages;
          tc "lazy verify" `Quick test_db_lazy_verify;
          tc "lazy verify catches corruption" `Quick
            test_db_lazy_verify_corruption;
          tc "empty index reopens" `Quick test_empty_index_reopens;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest test_compact_equals_load;
          tc "crc32 check value" `Quick test_crc32_check_value;
          QCheck_alcotest.to_alcotest test_crc32_matches_reference;
        ] );
    ]
