(* Live-update tests: the WAL (framing, recovery, torn writes, fsync
   failures, corruption sweep), the delta segment, the live store's
   crash matrix, checkpointing, and the service-layer update path.

   The central properties:
   - an acknowledged mutation is durable: it survives kill -9 and is
     replayed on reopen;
   - a crash at ANY byte of a WAL append leaves the store equal to
     the pre-op state (frame torn) or the post-op state (frame
     complete) — never anything in between;
   - queries over base ∪ delta − tombstones return byte-identical
     rows to a from-scratch rebuild of the same logical corpus, for
     every query family, sequential and parallel;
   - checkpointing folds the delta into a fresh immutable image that
     again equals the rebuild. *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let base_docs =
  [
    ( "d0.xml",
      "<article><title>search engine</title><sec><p>internet search \
       retrieval</p><p>index engine</p></sec></article>" );
    ( "d1.xml",
      "<article><title>information retrieval</title><sec><p>search the \
       internet</p></sec></article>" );
    ( "d2.xml",
      "<article><sec><p>search engine internet</p><p>retrieval search \
       engine</p></sec></article>" );
    ( "d3.xml",
      "<article><title>databases</title><sec><p>xml query \
       processing</p></sec></article>" );
  ]

let doc_a =
  "<article><title>search</title><sec><p>search engine \
   retrieval</p></sec></article>"

let doc_b =
  "<article><sec><p>internet engine</p><p>search search \
   retrieval</p></sec></article>"

let doc_c = "<article><sec><p>ranking search internet</p></sec></article>"

let parse_docs docs =
  List.map (fun (n, x) -> (n, Xmlkit.Parser.parse_string_exn x)) docs

let mk_base () = Store.Db.of_documents (parse_docs base_docs)

(* the mutation script exercised by the crash sweep: insert, update of
   a base doc, delete of a base doc, second insert, delete of a delta
   doc *)
let script =
  [
    Store.Wal.Insert { name = "new1.xml"; xml = doc_a };
    Store.Wal.Update { name = "d0.xml"; xml = doc_b };
    Store.Wal.Delete { name = "d1.xml" };
    Store.Wal.Insert { name = "new2.xml"; xml = doc_c };
    Store.Wal.Delete { name = "new1.xml" };
  ]

let apply_live live (r : Store.Wal.record) =
  match r with
  | Store.Wal.Insert { name; xml } -> Store.Live.insert live ~name ~xml
  | Store.Wal.Delete { name } -> Store.Live.delete live ~name
  | Store.Wal.Update { name; xml } -> Store.Live.update live ~name ~xml

let apply_live_exn live r =
  match apply_live live r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mutation: %s" (Store.Live.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Reference model: the logical corpus after a prefix of the script,
   maintained with the delta's own ordering rules so a from-scratch
   rebuild reproduces the merged dense id space. *)

type sim = {
  mutable s_base : (string * string) list;  (** live base docs, base order *)
  mutable s_delta : (string * string) list;  (** delta docs, arrival order *)
}

let sim_create () = { s_base = base_docs; s_delta = [] }

let sim_apply s (r : Store.Wal.record) =
  match r with
  | Store.Wal.Insert { name; xml } -> s.s_delta <- s.s_delta @ [ (name, xml) ]
  | Store.Wal.Delete { name } ->
    if List.mem_assoc name s.s_delta then
      s.s_delta <- List.filter (fun (n, _) -> n <> name) s.s_delta
    else s.s_base <- List.filter (fun (n, _) -> n <> name) s.s_base
  | Store.Wal.Update { name; xml } ->
    if List.mem_assoc name s.s_delta then
      s.s_delta <-
        List.map (fun (n, x) -> if n = name then (n, xml) else (n, x)) s.s_delta
    else begin
      s.s_base <- List.filter (fun (n, _) -> n <> name) s.s_base;
      s.s_delta <- s.s_delta @ [ (name, xml) ]
    end

let sim_after prefix =
  let s = sim_create () in
  List.iter (sim_apply s) prefix;
  s

let sim_rebuild s = Store.Db.of_documents (parse_docs (s.s_base @ s.s_delta))

(* ------------------------------------------------------------------ *)
(* Query-equality harness: every family, sequential and parallel. *)

let compilable =
  {|
  for $a in document("*")//article/descendant-or-self::*
  score $a using ScoreFoo($a, {"search"}, {"retrieval"})
  return <r>{$a}</r>
  sortby(score)
  threshold $a/@score > 0 stop after 10
  |}

let families =
  [
    ("query", Service.Engine.Query { q = compilable; mode = `Engine });
    ( "search",
      Service.Engine.Search
        {
          terms = [ "search"; "retrieval" ];
          method_ = Service.Engine.Termjoin;
          complex = false;
          anchor = None;
        } );
    ("phrase", Service.Engine.Phrase { phrase = "search engine"; comp3 = false });
    ("ranked", Service.Engine.Ranked { terms = [ "search"; "internet" ] });
  ]

let snapshot_exn db =
  match Service.Engine.of_db db with
  | Ok s -> s
  | Error msg -> Alcotest.failf "of_db: %s" msg

let row_keys (r : Service.Engine.result) =
  List.map
    (fun (row : Service.Engine.row) -> (row.tag, row.doc, row.start, row.score))
    r.Service.Engine.rows

(* Execute every family against [snap] (base + delta view) and
   against a from-scratch rebuild of [sim]; rows must be identical at
   parallelism 1 and 2. *)
let assert_equals_rebuild ~what snap sim =
  let rebuilt = snapshot_exn (sim_rebuild sim) in
  List.iter
    (fun (family, request) ->
      List.iter
        (fun parallelism ->
          let run s =
            match
              Service.Engine.exec ~parallelism ~k:10 s request
            with
            | Ok r -> r
            | Error e ->
              Alcotest.failf "%s: %s (par %d): %s" what family parallelism
                (Service.Engine.error_message e)
          in
          let live_run = run snap in
          let rebuild_run = run rebuilt in
          check bool_
            (Printf.sprintf "%s: %s rows = rebuild (par %d)" what family
               parallelism)
            true
            (row_keys live_run = row_keys rebuild_run);
          check bool_
            (Printf.sprintf "%s: %s trees = rebuild (par %d)" what family
               parallelism)
            true
            (live_run.Service.Engine.trees = rebuild_run.Service.Engine.trees))
        [ 1; 2 ])
    families

let live_snapshot live =
  let base, delta = Store.Live.view live in
  Service.Engine.with_delta (snapshot_exn base) delta

(* ------------------------------------------------------------------ *)
(* Temp dirs *)

let temp_dir () =
  let path = Filename.temp_file "tix_updates" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let open_live ?fault ?(base = true) ?wal_batch dir =
  let base = if base then Some (mk_base ()) else None in
  match Store.Live.open_dir ?fault ?base ?wal_batch ~dir () with
  | Ok opened -> opened
  | Error e -> Alcotest.failf "open_dir: %s" (Store.Live.error_to_string e)

(* ------------------------------------------------------------------ *)
(* WAL basics *)

let wal_open_exn ?fault path =
  match Store.Wal.open_ ?fault path with
  | Ok (wal, recovery) -> (wal, recovery)
  | Error e -> Alcotest.failf "wal open: %s" (Store.Wal.error_to_string e)

let wal_append_exn wal r =
  match Store.Wal.append wal r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "wal append: %s" (Store.Wal.error_to_string e)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let wal, recovery = wal_open_exn path in
      check int_ "fresh log is empty" 0 (List.length recovery.Store.Wal.records);
      List.iter (wal_append_exn wal) script;
      check int_ "records counted" (List.length script)
        (Store.Wal.record_count wal);
      Store.Wal.close wal;
      let wal, recovery = wal_open_exn path in
      check bool_ "reopen replays the exact records" true
        (recovery.Store.Wal.records = script);
      check int_ "clean log truncates nothing" 0
        recovery.Store.Wal.truncated_bytes;
      Store.Wal.close wal)

(* frame length (header+payload+commit) of each script record,
   measured on a clean log *)
let frame_lengths () =
  with_dir (fun dir ->
      let wal, _ = wal_open_exn (Filename.concat dir "wal.log") in
      let sizes =
        List.map
          (fun r ->
            let before = Store.Wal.byte_size wal in
            wal_append_exn wal r;
            Store.Wal.byte_size wal - before)
          script
      in
      Store.Wal.close wal;
      sizes)

let test_wal_torn_write_every_byte () =
  (* sweep a torn write through EVERY byte of one frame: recovery
     must yield the empty log below the frame length and the full
     record at (or past) it *)
  let record = Store.Wal.Insert { name = "t.xml"; xml = "<a>x y</a>" } in
  let flen =
    with_dir (fun dir ->
        let wal, _ = wal_open_exn (Filename.concat dir "wal.log") in
        wal_append_exn wal record;
        let n = Store.Wal.byte_size wal - 8 in
        Store.Wal.close wal;
        n)
  in
  check bool_ "frame is non-trivial" true (flen > 12);
  with_dir (fun dir ->
      for at_byte = 0 to flen + 3 do
        let path = Filename.concat dir (Printf.sprintf "w%d.log" at_byte) in
        let fault = Store.Fault.create () in
        Store.Fault.arm_write_fault fault ~op:0
          (Store.Fault.Torn_write { at_byte });
        let wal, _ = wal_open_exn ~fault path in
        (match Store.Wal.append wal record with
        | Ok () | Error _ -> Alcotest.fail "armed torn write did not crash"
        | exception Store.Fault.Write_crash { wrote; _ } ->
          check int_
            (Printf.sprintf "bytes on disk at crash point %d" at_byte)
            (min at_byte flen) wrote);
        Store.Wal.close wal;
        let wal, recovery = wal_open_exn path in
        let expected = if at_byte >= flen then [ record ] else [] in
        check bool_
          (Printf.sprintf "crash at byte %d recovers pre- or post-op" at_byte)
          true
          (recovery.Store.Wal.records = expected);
        check int_
          (Printf.sprintf "torn tail truncated at byte %d" at_byte)
          (if at_byte >= flen then 0 else at_byte)
          recovery.Store.Wal.truncated_bytes;
        (* recovery is idempotent *)
        Store.Wal.close wal;
        let wal, again = wal_open_exn path in
        check bool_ "second recovery identical" true
          (again.Store.Wal.records = expected
          && again.Store.Wal.truncated_bytes = 0);
        Store.Wal.close wal
      done)

let test_wal_fsync_failure_rolls_back () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let fault = Store.Fault.create () in
      let wal, _ = wal_open_exn ~fault path in
      wal_append_exn wal (List.nth script 0);
      let size = Store.Wal.byte_size wal in
      Store.Fault.arm_write_fault fault ~op:1 Store.Fault.Fail_fsync;
      (match Store.Wal.append wal (List.nth script 1) with
      | Ok () -> Alcotest.fail "injected fsync failure was swallowed"
      | Error (Store.Wal.Sync_failed _) -> ()
      | Error e ->
        Alcotest.failf "wanted Sync_failed, got %s"
          (Store.Wal.error_to_string e));
      check int_ "log rolled back to pre-append length" size
        (Store.Wal.byte_size wal);
      check int_ "record not counted" 1 (Store.Wal.record_count wal);
      (* the handle stays usable; the next append commits *)
      wal_append_exn wal (List.nth script 1);
      Store.Wal.close wal;
      let wal, recovery = wal_open_exn path in
      check bool_ "survivors are exactly the committed records" true
        (recovery.Store.Wal.records
        = [ List.nth script 0; List.nth script 1 ]);
      check int_ "one fsync failure injected" 1
        (Store.Fault.stats fault).Store.Fault.failed_fsyncs;
      Store.Wal.close wal)

let test_wal_corruption_sweep_byte_flips () =
  (* single-byte corruption sweep, mirroring the .tix image sweep:
     every flip inside the magic is a typed open error; every flip
     inside a frame truncates recovery to the preceding frames —
     never an exception, never a wrong record *)
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let wal, _ = wal_open_exn path in
      (* frame boundary offsets: frame i spans [starts.(i), starts.(i+1)) *)
      let frame_starts =
        List.map
          (fun r ->
            let s = Store.Wal.byte_size wal in
            wal_append_exn wal r;
            s)
          script
      in
      let starts = Array.of_list (frame_starts @ [ Store.Wal.byte_size wal ]) in
      Store.Wal.close wal;
      let read_file p =
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let write_file p s =
        let oc = open_out_bin p in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc s)
      in
      let image = read_file path in
      let n = String.length image in
      check int_ "image spans the frames" n starts.(Array.length starts - 1);
      let frame_of off =
        (* index of the frame containing byte [off] *)
        let rec go i = if off < starts.(i + 1) then i else go (i + 1) in
        go 0
      in
      for off = 0 to n - 1 do
        let damaged = Bytes.of_string image in
        Bytes.set damaged off (Char.chr (Char.code image.[off] lxor 0x01));
        write_file path (Bytes.to_string damaged);
        if off < 8 then begin
          (* magic header: typed error, version flips report the
             version variant *)
          match Store.Wal.open_ path with
          | Ok _ -> Alcotest.failf "header flip at %d went undetected" off
          | Error (Store.Wal.Not_a_wal _ | Store.Wal.Unsupported_version _) ->
            ()
          | Error e ->
            Alcotest.failf "header flip at %d: unexpected %s" off
              (Store.Wal.error_to_string e)
        end
        else begin
          let wal, recovery = wal_open_exn path in
          let expected_frames = frame_of off in
          check bool_
            (Printf.sprintf "flip at %d truncates to the preceding frames" off)
            true
            (recovery.Store.Wal.records
            = List.filteri (fun i _ -> i < expected_frames) script);
          check bool_
            (Printf.sprintf "flip at %d discards the damaged tail" off)
            true
            (recovery.Store.Wal.truncated_bytes > 0);
          Store.Wal.close wal
        end
      done)

(* ------------------------------------------------------------------ *)
(* Group commit: batched appends share one write + fsync but keep the
   per-frame durability semantics byte for byte. *)

let test_wal_append_many_roundtrip () =
  with_dir (fun dir ->
      let batched = Filename.concat dir "batched.log" in
      let serial = Filename.concat dir "serial.log" in
      let wal, _ = wal_open_exn batched in
      (match Store.Wal.append_many wal script with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "append_many: %s" (Store.Wal.error_to_string e));
      check int_ "records counted" (List.length script)
        (Store.Wal.record_count wal);
      (match Store.Wal.append_many wal [] with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "empty batch: %s" (Store.Wal.error_to_string e));
      Store.Wal.close wal;
      let wal, _ = wal_open_exn serial in
      List.iter (wal_append_exn wal) script;
      Store.Wal.close wal;
      let read_file p =
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check bool_ "batched log is byte-identical to serial appends" true
        (read_file batched = read_file serial);
      let wal, recovery = wal_open_exn batched in
      check bool_ "reopen replays the batch" true
        (recovery.Store.Wal.records = script);
      Store.Wal.close wal)

let test_wal_batched_crash_sweep () =
  (* sweep a torn write through every op of one batch: earlier frames
     are durable, the torn frame truncates, later frames were never
     written — exactly a crash between two per-op commits *)
  let flens = Array.of_list (frame_lengths ()) in
  List.iteri
    (fun j _ ->
      let flen = flens.(j) in
      List.iter
        (fun at_byte ->
          with_dir (fun dir ->
              let path = Filename.concat dir "wal.log" in
              let fault = Store.Fault.create () in
              Store.Fault.arm_write_fault fault ~op:j
                (Store.Fault.Torn_write { at_byte });
              let wal, _ = wal_open_exn ~fault path in
              (match Store.Wal.append_many wal script with
              | Ok () | Error _ ->
                Alcotest.fail "armed torn write did not crash"
              | exception Store.Fault.Write_crash { op; wrote } ->
                check int_ "crash names the torn op" j op;
                check int_
                  (Printf.sprintf "op %d crash at %d: bytes of the torn frame"
                     j at_byte)
                  (min at_byte flen) wrote);
              Store.Wal.close wal;
              let wal, recovery = wal_open_exn path in
              let committed = at_byte >= flen in
              check bool_
                (Printf.sprintf
                   "op %d crash at %d: preceding frames durable, later \
                    frames absent"
                   j at_byte)
                true
                (recovery.Store.Wal.records
                = List.filteri
                    (fun i _ -> i < j || (i = j && committed))
                    script);
              check int_
                (Printf.sprintf "op %d crash at %d: torn tail truncated" j
                   at_byte)
                (if committed then 0 else at_byte)
                recovery.Store.Wal.truncated_bytes;
              Store.Wal.close wal))
        [ 0; 1; flen / 2; flen - 1; flen; flen + 9 ])
    script

let test_wal_append_many_fsync_failure_rolls_back_whole_batch () =
  (* one fsync covers the whole batch, so its failure fails — and
     rolls back — every record in it *)
  List.iter
    (fun j ->
      with_dir (fun dir ->
          let path = Filename.concat dir "wal.log" in
          let fault = Store.Fault.create () in
          Store.Fault.arm_write_fault fault ~op:j Store.Fault.Fail_fsync;
          let wal, _ = wal_open_exn ~fault path in
          (match Store.Wal.append_many wal script with
          | Ok () -> Alcotest.fail "injected fsync failure was swallowed"
          | Error (Store.Wal.Sync_failed _) -> ()
          | Error e ->
            Alcotest.failf "wanted Sync_failed, got %s"
              (Store.Wal.error_to_string e));
          check int_ "no record of the batch survives in memory" 0
            (Store.Wal.record_count wal);
          (* the handle stays usable; the retried batch commits *)
          (match Store.Wal.append_many wal script with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "retry: %s" (Store.Wal.error_to_string e));
          Store.Wal.close wal;
          let wal, recovery = wal_open_exn path in
          check bool_ "retried batch is the only durable state" true
            (recovery.Store.Wal.records = script);
          Store.Wal.close wal))
    [ 0; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Delta semantics *)

let test_delta_strict_errors () =
  let d = Store.Delta.create ~base:(mk_base ()) in
  (match Store.Delta.insert d ~name:"d0.xml" ~xml:doc_a with
  | Error (Store.Delta.Duplicate_document { name }) ->
    check string_ "duplicate names the doc" "d0.xml" name
  | _ -> Alcotest.fail "duplicate insert accepted");
  (match Store.Delta.delete d ~name:"nope.xml" with
  | Error (Store.Delta.Unknown_document _) -> ()
  | _ -> Alcotest.fail "unknown delete accepted");
  (match Store.Delta.update d ~name:"nope.xml" ~xml:doc_a with
  | Error (Store.Delta.Unknown_document _) -> ()
  | _ -> Alcotest.fail "unknown update accepted");
  (match Store.Delta.insert d ~name:"bad.xml" ~xml:"<open>" with
  | Error (Store.Delta.Parse_failed { name; reason }) ->
    check string_ "parse failure names the doc" "bad.xml" name;
    check bool_ "reason is non-empty" true (String.length reason > 0)
  | _ -> Alcotest.fail "unparseable insert accepted");
  check bool_ "rejections leave the delta empty" true (Store.Delta.is_empty d)

let test_delta_update_in_place () =
  let d = Store.Delta.create ~base:(mk_base ()) in
  let ok = function
    | Ok d -> d
    | Error e ->
      Alcotest.failf "delta: %s" (Store.Delta.mutation_error_to_string e)
  in
  let d = ok (Store.Delta.insert d ~name:"x.xml" ~xml:doc_a) in
  let d = ok (Store.Delta.insert d ~name:"y.xml" ~xml:doc_b) in
  (* update of a delta doc replaces in place — arrival order keeps *)
  let d = ok (Store.Delta.update d ~name:"x.xml" ~xml:doc_c) in
  check bool_ "order preserved, content replaced" true
    (Store.Delta.documents d = [ ("x.xml", doc_c); ("y.xml", doc_b) ]);
  check int_ "no tombstones for delta-only churn" 0
    (Store.Delta.tombstone_count d);
  (* update of a base doc tombstones it and appends *)
  let d = ok (Store.Delta.update d ~name:"d2.xml" ~xml:doc_a) in
  check int_ "base update tombstones" 1 (Store.Delta.tombstone_count d);
  check bool_ "base update appends" true
    (List.map fst (Store.Delta.documents d) = [ "x.xml"; "y.xml"; "d2.xml" ]);
  check bool_ "name still live" true (Store.Delta.mem d "d2.xml");
  (* delete of a delta doc removes it entirely *)
  let d = ok (Store.Delta.delete d ~name:"y.xml") in
  check bool_ "deleted delta doc is gone" false (Store.Delta.mem d "y.xml")

let test_delta_lenient_replay () =
  let d = Store.Delta.create ~base:(mk_base ()) in
  let d, report =
    Store.Delta.replay d
      [
        (* insert of a live (base) name degrades to update *)
        Store.Wal.Insert { name = "d0.xml"; xml = doc_a };
        (* update of a dead name degrades to insert *)
        Store.Wal.Update { name = "fresh.xml"; xml = doc_b };
        (* delete of a dead name is a no-op *)
        Store.Wal.Delete { name = "never.xml" };
        (* unparseable XML is skipped, not fatal *)
        Store.Wal.Insert { name = "junk.xml"; xml = "<broken" };
      ]
  in
  check int_ "two records took effect" 2 report.Store.Delta.applied;
  check int_ "two were skipped/degraded" 2 report.Store.Delta.skipped;
  check bool_ "insert-of-live became update" true
    (Store.Delta.mem d "d0.xml" && Store.Delta.tombstone_count d = 1);
  check bool_ "update-of-dead became insert" true (Store.Delta.mem d "fresh.xml");
  check bool_ "junk stayed out" false (Store.Delta.mem d "junk.xml")

(* ------------------------------------------------------------------ *)
(* Query equality: base ∪ delta − tombstones = from-scratch rebuild *)

let test_delta_queries_equal_rebuild () =
  with_dir (fun dir ->
      let opened = open_live dir in
      let live = opened.Store.Live.live in
      List.iteri
        (fun i op ->
          apply_live_exn live op;
          assert_equals_rebuild
            ~what:(Printf.sprintf "after op %d" i)
            (live_snapshot live)
            (sim_after (List.filteri (fun j _ -> j <= i) script)))
        script;
      Store.Live.close live)

let test_pick_query_over_delta () =
  (* pick plans execute over a live snapshot with pending documents:
     the picked-ancestor projection runs on the merged view and
     agrees with a from-scratch rebuild (this used to be a typed
     Unsupported) *)
  let q =
    {|
    for $a in document("*")//article/descendant-or-self::*
    score $a using ScoreFoo($a, {"search"}, {"retrieval"})
    pick $a using PickFoo()
    return <r>{$a}</r>
    sortby(score)
    threshold $a/@score > 0 stop after 10
    |}
  in
  with_dir (fun dir ->
      let opened = open_live dir in
      let live = opened.Store.Live.live in
      List.iter (apply_live_exn live) script;
      let snap = live_snapshot live in
      check bool_ "delta is non-empty" true
        (not (Store.Delta.is_empty (Store.Live.delta live)));
      let rebuilt = snapshot_exn (sim_rebuild (sim_after script)) in
      List.iter
        (fun parallelism ->
          let run s =
            match
              Service.Engine.exec ~parallelism ~k:10 s
                (Service.Engine.Query { q; mode = `Engine })
            with
            | Ok r -> r
            | Error e ->
              Alcotest.failf "pick over delta (par %d): %s" parallelism
                (Service.Engine.error_message e)
          in
          check bool_
            (Printf.sprintf "pick rows = rebuild (par %d)" parallelism)
            true
            (row_keys (run snap) = row_keys (run rebuilt)))
        [ 1; 2 ];
      Store.Live.close live)

(* Regression: a compiled query's [stop after] cut must come after
   the tombstone filter. Here one deleted base document holds the five
   best rows — more than limit + tombstones — so a base run cut at
   [limit + n_tomb] and filtered afterwards kept none of the live rows
   a rebuild returns. *)
let test_query_tombstoned_top_rows () =
  let hot =
    "<article><sec><p>search search search search search</p><p>search \
     search search search</p><p>search search search \
     search</p></sec></article>"
  in
  let query limit =
    Service.Engine.Query
      {
        q =
          Printf.sprintf
            {|
            for $a in document("*")//article/descendant-or-self::*
            score $a using ScoreFoo($a, {"search"}, {})
            return <r>{$a}</r>
            sortby(score)
            threshold $a/@score > 0 stop after %d
            |}
            limit;
        mode = `Engine;
      }
  in
  let run ?(limit = 3) s =
    match Service.Engine.exec ~k:10 s (query limit) with
    | Ok r -> r
    | Error e -> Alcotest.failf "query: %s" (Service.Engine.error_message e)
  in
  let base = Store.Db.of_documents (parse_docs (base_docs @ [ ("hot.xml", hot) ])) in
  let hot_doc = List.length base_docs in
  (* the scenario: the 4 best base rows all belong to the doomed doc *)
  let widened =
    (run ~limit:4 (snapshot_exn base)).Service.Engine.rows
  in
  check bool_ "deleted doc holds limit + tombstones top rows" true
    (List.length widened = 4
    && List.for_all (fun (r : Service.Engine.row) -> r.doc = hot_doc) widened);
  List.iter
    (fun (what, inserts) ->
      let delta = Store.Delta.create ~base in
      let delta =
        match Store.Delta.delete delta ~name:"hot.xml" with
        | Ok delta -> delta
        | Error e -> Alcotest.failf "delete: %s" (Store.Delta.mutation_error_to_string e)
      in
      let delta =
        List.fold_left
          (fun delta (name, xml) ->
            match Store.Delta.insert delta ~name ~xml with
            | Ok delta -> delta
            | Error e ->
              Alcotest.failf "insert: %s" (Store.Delta.mutation_error_to_string e))
          delta inserts
      in
      let live = run (Service.Engine.with_delta (snapshot_exn base) delta) in
      let rebuilt = run (snapshot_exn (Store.Db.of_documents (parse_docs (base_docs @ inserts)))) in
      check int_ (what ^ ": 3 rows") 3 (List.length live.Service.Engine.rows);
      check bool_ (what ^ ": rows = rebuild") true (row_keys live = row_keys rebuilt);
      check int_ (what ^ ": total = rebuild") rebuilt.Service.Engine.total
        live.Service.Engine.total)
    [ ("tombstone only", []); ("tombstone + insert", [ ("new.xml", doc_c) ]) ]

let rebuild_of (s : Service.Engine.snapshot) =
  match s.Service.Engine.delta with
  | Some { Service.Engine.rebuild = _, cell; _ } -> Atomic.get cell
  | None -> None

let delta_exn base ~deleted ~inserted =
  let ok = function
    | Ok delta -> delta
    | Error e -> Alcotest.failf "delta: %s" (Store.Delta.mutation_error_to_string e)
  in
  let delta = Store.Delta.create ~base in
  let delta =
    List.fold_left (fun delta name -> ok (Store.Delta.delete delta ~name)) delta deleted
  in
  List.fold_left
    (fun delta (name, xml) -> ok (Store.Delta.insert delta ~name ~xml))
    delta inserted

let test_interp_over_delta () =
  (* the interpreter fallback stays available over a pending delta:
     it reads the snapshot's rebuild of base ∪ delta − tombstones
     (this used to be a typed Unsupported) *)
  with_dir (fun dir ->
      let base =
        Store.Db.of_documents
          ~options:{ Store.Db.default_options with keep_trees = true }
          (parse_docs base_docs)
      in
      let opened =
        match Store.Live.open_dir ~base ~dir () with
        | Ok o -> o
        | Error e -> Alcotest.failf "open: %s" (Store.Live.error_to_string e)
      in
      let live = opened.Store.Live.live in
      apply_live_exn live (Store.Wal.Delete { name = "d1.xml" });
      let snap = live_snapshot live in
      (* a non-compilable query shape (phrase of two words in the
         score clause) runs on the interpreter *)
      let q =
        {|
        for $a in document("*")//article/descendant-or-self::*
        score $a using ScoreFoo($a, {"search engine"}, {"retrieval"})
        return <r>{$a}</r>
        sortby(score)
        threshold $a/@score > 0 stop after 10
        |}
      in
      let rebuilt =
        snapshot_exn
          (Store.Db.of_documents
             ~options:{ Store.Db.default_options with keep_trees = true }
             (parse_docs (List.filter (fun (n, _) -> n <> "d1.xml") base_docs)))
      in
      let run s =
        match
          Service.Engine.exec s (Service.Engine.Query { q; mode = `Interp })
        with
        | Ok r -> r
        | Error e ->
          Alcotest.failf "interp: %s" (Service.Engine.error_message e)
      in
      check bool_ "interp over tombstones = rebuild" true
        ((run snap).Service.Engine.trees = (run rebuilt).Service.Engine.trees);
      (* with a pending document the interpreter evaluates the merged
         base ∪ delta view and must equal a from-scratch rebuild *)
      apply_live_exn live (Store.Wal.Insert { name = "new.xml"; xml = doc_a });
      let snap2 = live_snapshot live in
      let rebuilt2 =
        snapshot_exn
          (Store.Db.of_documents
             ~options:{ Store.Db.default_options with keep_trees = true }
             (parse_docs
                (List.filter (fun (n, _) -> n <> "d1.xml") base_docs
                @ [ ("new.xml", doc_a) ])))
      in
      List.iter
        (fun parallelism ->
          let run s =
            match
              Service.Engine.exec ~parallelism s
                (Service.Engine.Query { q; mode = `Interp })
            with
            | Ok r -> r
            | Error e ->
              Alcotest.failf "merged interp (par %d): %s" parallelism
                (Service.Engine.error_message e)
          in
          check bool_
            (Printf.sprintf "interp over pending delta = rebuild (par %d)"
               parallelism)
            true
            ((run snap2).Service.Engine.trees
            = (run rebuilt2).Service.Engine.trees))
        [ 1; 2 ];
      let built = rebuild_of snap2 in
      (* a query reading document(...) twice pairs base and delta
         documents: the rebuild holds both *)
      let q2 =
        {|
        for $a in document("*")//article
        for $b in document("*")//article
        score $a using ScoreFoo($a, {"search engine"}, {"retrieval"})
        return <r>{$a}</r>
        |}
      in
      let run2 s =
        match
          Service.Engine.exec s (Service.Engine.Query { q = q2; mode = `Interp })
        with
        | Ok r -> r.Service.Engine.trees
        | Error e ->
          Alcotest.failf "two-document() interp: %s"
            (Service.Engine.error_message e)
      in
      check (Alcotest.list string_) "two-document() query = rebuild"
        (run2 rebuilt2) (run2 snap2);
      check bool_ "later queries reuse the snapshot's one rebuild" true
        (Option.is_some built && rebuild_of snap2 == built);
      Store.Live.close live)

(* After a restart the base is the checkpoint image, which retains no
   trees, while pending documents keep theirs. A query reading only a
   pending document answers from the rebuild and keeps answering
   after the next checkpoint; one reading a base document fails as
   before; a tombstone-only delta builds no rebuild, which would
   retain no tree. *)
let test_interp_after_restart () =
  with_dir (fun dir ->
      let reopen () =
        match Store.Live.open_dir ~dir () with
        | Ok o -> o.Store.Live.live
        | Error e -> Alcotest.failf "open: %s" (Store.Live.error_to_string e)
      in
      let checkpoint live =
        match Store.Live.checkpoint live with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "checkpoint: %s" (Store.Live.error_to_string e)
      in
      let live =
        match Store.Live.open_dir ~base:(mk_base ()) ~dir () with
        | Ok o -> o.Store.Live.live
        | Error e -> Alcotest.failf "open: %s" (Store.Live.error_to_string e)
      in
      checkpoint live;
      Store.Live.close live;
      let live = reopen () in
      apply_live_exn live (Store.Wal.Insert { name = "new.xml"; xml = doc_a });
      let query pattern =
        Printf.sprintf
          {|for $a in document(%S)//article/descendant-or-self::*
            score $a using ScoreFoo($a, {"search engine"}, {"retrieval"})
            return <r>{$a}</r>
            sortby(score)|}
          pattern
      in
      let exec s pattern =
        Service.Engine.exec s
          (Service.Engine.Query { q = query pattern; mode = `Interp })
      in
      let answer s =
        match exec s "new.xml" with
        | Ok r -> r.Service.Engine.trees
        | Error e -> Alcotest.failf "interp: %s" (Service.Engine.error_message e)
      in
      let expected =
        answer
          (snapshot_exn
             (Store.Db.of_documents
                (parse_docs (base_docs @ [ ("new.xml", doc_a) ]))))
      in
      let snap = live_snapshot live in
      check bool_ "the base retains no trees" false
        (Store.Db.retains_trees snap.Service.Engine.db);
      check (Alcotest.list string_) "pending document = rebuild" expected
        (answer snap);
      check bool_ "rebuild built" true (Option.is_some (rebuild_of snap));
      (match exec snap "*" with
      | Error (Service.Engine.Unsupported msg) ->
        check string_ "tree-less base message"
          "document 0 was loaded without keep_trees; cannot navigate it" msg
      | Ok _ -> Alcotest.fail "interp navigated a tree-less image"
      | Error e ->
        Alcotest.failf "wanted Unsupported, got %s"
          (Service.Engine.error_message e));
      checkpoint live;
      check (Alcotest.list string_) "answer unchanged across checkpoint"
        expected
        (answer (live_snapshot live));
      Store.Live.close live;
      let live = reopen () in
      apply_live_exn live (Store.Wal.Delete { name = "d0.xml" });
      let snap = live_snapshot live in
      (* the base is read as is, so the message names the deleted d0 *)
      (match exec snap "*" with
      | Error (Service.Engine.Unsupported msg) ->
        check string_ "tombstone-only delta message"
          "document 0 was loaded without keep_trees; cannot navigate it" msg
      | Ok _ -> Alcotest.fail "interp navigated a tree-less image"
      | Error e ->
        Alcotest.failf "wanted Unsupported, got %s"
          (Service.Engine.error_message e));
      check bool_ "rebuild never built" true (rebuild_of snap = None);
      Store.Live.close live)

(* The request's deadline runs from before the rebuild: a build that
   outlasts it is the request's breach, charged no steps, and the
   next query reuses the rebuild *)
let test_interp_deadline_covers_rebuild () =
  let base = mk_base () in
  let snap =
    Service.Engine.with_delta (snapshot_exn base)
      (delta_exn base ~deleted:[] ~inserted:[ ("new.xml", doc_a) ])
  in
  let request =
    Service.Engine.Query
      {
        q = {|for $a in document("*")//p return <r>{$a}</r>|};
        mode = `Interp;
      }
  in
  (match
     Service.Engine.exec
       ~limits:(Core.Governor.limits ~timeout_s:1e-9 ())
       snap request
   with
  | Error (Service.Engine.Exhausted v) ->
    check bool_ "deadline" true (v.Core.Governor.reason = Core.Governor.Timeout);
    check int_ "no evaluation steps" 0 v.Core.Governor.steps
  | Ok _ -> Alcotest.fail "deadline not enforced"
  | Error e -> Alcotest.failf "wanted exhausted: %s" (Service.Engine.error_message e));
  let built = rebuild_of snap in
  check bool_ "rebuild kept" true (Option.is_some built);
  (match Service.Engine.exec snap request with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "interp: %s" (Service.Engine.error_message e));
  check bool_ "rebuild reused" true (rebuild_of snap == built)

(* Collection-statistic scorers read the document count and document
   frequencies of the whole collection: interpreted over a
   tombstone-only delta or a pending insert, tfidf and bm25 score as
   on a from-scratch rebuild *)
let test_interp_statistics_over_delta () =
  let base = mk_base () in
  let hot = "<article><sec><p>search search search</p></sec></article>" in
  List.iter
    (fun scorer ->
      let q =
        Printf.sprintf
          {|for $a in document("*")//p
            score $a using %s($a, {"search", "engine"})
            return <r><score>{$a/@score}</score>{$a}</r>
            sortby(score)|}
          scorer
      in
      let trees s =
        match
          Service.Engine.exec s (Service.Engine.Query { q; mode = `Interp })
        with
        | Ok r -> r.Service.Engine.trees
        | Error e -> Alcotest.failf "%s: %s" scorer (Service.Engine.error_message e)
      in
      List.iter
        (fun (what, deleted, inserted) ->
          let rebuilt =
            Store.Db.of_documents
              (parse_docs
                 (List.filter (fun (n, _) -> not (List.mem n deleted)) base_docs
                 @ inserted))
          in
          let delta = delta_exn base ~deleted ~inserted in
          check (Alcotest.list string_)
            (Printf.sprintf "%s over %s = rebuild" scorer what)
            (trees (snapshot_exn rebuilt))
            (trees (Service.Engine.with_delta (snapshot_exn base) delta)))
        [
          ("a tombstone-only delta", [ "d1.xml" ], []);
          ("a pending insert", [], [ ("hot.xml", hot) ]);
        ])
    [ "tfidf"; "bm25" ]

(* Domains that race to a snapshot's first interpreted query share
   its one rebuild: the cell is not a [Lazy], which raises when two
   domains force it at once *)
let test_interp_rebuild_across_domains () =
  let base = mk_base () in
  let inserted = [ ("new.xml", doc_a) ] in
  let snap =
    Service.Engine.with_delta (snapshot_exn base)
      (delta_exn base ~deleted:[ "d1.xml" ] ~inserted)
  in
  let rebuilt =
    Store.Db.of_documents
      (parse_docs
         (List.filter (fun (n, _) -> n <> "d1.xml") base_docs @ inserted))
  in
  let q =
    {|for $a in document("*")//p
      score $a using tfidf($a, {"search"})
      return <r><score>{$a/@score}</score>{$a}</r>
      sortby(score)|}
  in
  let trees s =
    match Service.Engine.exec s (Service.Engine.Query { q; mode = `Interp }) with
    | Ok r -> r.Service.Engine.trees
    | Error e -> failwith (Service.Engine.error_message e)
  in
  let expected = trees (snapshot_exn rebuilt) in
  let n = 4 in
  let ready = Atomic.make 0 in
  let racers =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Domain.cpu_relax ()
            done;
            trees snap))
  in
  List.iter
    (fun d ->
      check (Alcotest.list string_) "racing domain = rebuild" expected
        (Domain.join d))
    racers

(* an interpreted query over its step budget is [exhausted], with or
   without a pending delta *)
let test_interp_budget_over_delta () =
  let base = mk_base () in
  let plain = snapshot_exn base in
  let q =
    {|for $a in document("*")//p
      score $a using tfidf($a, {"search"})
      return <r>{$a}</r>|}
  in
  List.iter
    (fun (what, snap) ->
      match
        Service.Engine.exec
          ~limits:(Core.Governor.limits ~max_steps:5 ())
          snap
          (Service.Engine.Query { q; mode = `Interp })
      with
      | Error e -> check string_ what "exhausted" (Service.Engine.error_code e)
      | Ok _ -> Alcotest.failf "%s: 5-step budget not enforced" what)
    [
      ("plain snapshot", plain);
      ( "tombstone-only delta",
        Service.Engine.with_delta plain
          (delta_exn base ~deleted:[ "d1.xml" ] ~inserted:[]) );
      ( "pending insert",
        Service.Engine.with_delta plain
          (delta_exn base ~deleted:[] ~inserted:[ ("new.xml", doc_a) ]) );
    ]

(* One budget per request: over six base and six pending copies of one
   article, search, phrase and ranked exceed a result cap of the
   rebuild's total − 1 and a step budget of its steps − 1, as the
   rebuild does, though neither segment alone would *)
let test_budget_spans_segments () =
  let copies prefix =
    List.init 6 (fun i -> (Printf.sprintf "%s%d.xml" prefix i, doc_a))
  in
  let base = Store.Db.of_documents (parse_docs (copies "base")) in
  let merged =
    Service.Engine.with_delta (snapshot_exn base)
      (delta_exn base ~deleted:[] ~inserted:(copies "new"))
  in
  let rebuilt =
    snapshot_exn
      (Store.Db.of_documents (parse_docs (copies "base" @ copies "new")))
  in
  List.iter
    (fun (family, request) ->
      let full =
        match Service.Engine.exec rebuilt request with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %s" family (Service.Engine.error_message e)
      in
      List.iter
        (fun (budget, limits) ->
          List.iter
            (fun (side, snap) ->
              match Service.Engine.exec ~limits snap request with
              | Error (Service.Engine.Exhausted _) -> ()
              | Ok _ ->
                Alcotest.failf "%s over %s: %s not enforced" family side budget
              | Error e ->
                Alcotest.failf "%s over %s: %s" family side
                  (Service.Engine.error_message e))
            [ ("the rebuild", rebuilt); ("base + delta", merged) ])
        [
          ( "result cap",
            Core.Governor.limits ~max_results:(full.Service.Engine.total - 1) () );
          ( "step budget",
            Core.Governor.limits ~max_steps:(full.Service.Engine.steps_used - 1) ()
          );
        ])
    [
      ( "search",
        Service.Engine.Search
          {
            terms = [ "search"; "retrieval" ];
            method_ = Service.Engine.Termjoin;
            complex = false;
            anchor = None;
          } );
      ("phrase", Service.Engine.Phrase { phrase = "search engine"; comp3 = false });
      ("ranked", Service.Engine.Ranked { terms = [ "search"; "retrieval" ] });
    ]

(* ------------------------------------------------------------------ *)
(* Crash-point sweep: kill the process at every frame boundary of
   every scripted mutation; the reopened store must equal the pre-op
   or post-op state — verified by full query equality. *)

let test_crash_point_sweep () =
  let flens = frame_lengths () in
  List.iteri
    (fun i op ->
      let flen = List.nth flens i in
      (* crash points: start, inside the header, inside the payload,
         one byte short of commit, exactly complete, past the end
         (complete write, crash before returning) *)
      let points =
        [ 0; 1; 4; 8; flen / 2; flen - 1; flen; flen + 9 ]
        |> List.sort_uniq compare
        |> List.filter (fun p -> p >= 0)
      in
      List.iter
        (fun at_byte ->
          with_dir (fun dir ->
              let fault = Store.Fault.create () in
              let opened = open_live ~fault dir in
              let live = opened.Store.Live.live in
              (* the committed prefix *)
              List.iteri
                (fun j op -> if j < i then apply_live_exn live op)
                script;
              Store.Fault.arm_write_fault fault ~op:i
                (Store.Fault.Torn_write { at_byte });
              (match apply_live live op with
              | Ok () | Error _ ->
                Alcotest.fail "armed torn write did not crash"
              | exception Store.Fault.Write_crash _ -> ());
              (* the process is dead; drop the handle and recover *)
              Store.Live.close live;
              let reopened = open_live dir in
              let committed = at_byte >= flen in
              let expected_ops =
                List.filteri (fun j _ -> j < i || (j = i && committed)) script
              in
              check bool_
                (Printf.sprintf "op %d crash at byte %d: exact records" i
                   at_byte)
                true
                (reopened.Store.Live.recovery.Store.Wal.records = expected_ops);
              assert_equals_rebuild
                ~what:(Printf.sprintf "op %d crash at byte %d" i at_byte)
                (live_snapshot reopened.Store.Live.live)
                (sim_after expected_ops);
              Store.Live.close reopened.Store.Live.live))
        points)
    script

(* ------------------------------------------------------------------ *)
(* Live store: recovery, strictness, checkpoint *)

let test_live_recovery_idempotent () =
  with_dir (fun dir ->
      let opened = open_live dir in
      List.iter (apply_live_exn opened.Store.Live.live) script;
      let stats = Store.Live.stats opened.Store.Live.live in
      check int_ "all records logged" (List.length script)
        stats.Store.Live.wal_records;
      Store.Live.close opened.Store.Live.live;
      (* reopen twice: same replay, nothing truncated *)
      let reference = ref None in
      for _round = 1 to 2 do
        let o = open_live dir in
        check int_ "replay applies every record" (List.length script)
          o.Store.Live.replay.Store.Delta.applied;
        check int_ "clean log truncates nothing" 0
          o.Store.Live.recovery.Store.Wal.truncated_bytes;
        let d = Store.Live.delta o.Store.Live.live in
        let state =
          (List.map fst (Store.Delta.documents d), Store.Delta.tombstone_count d)
        in
        (match !reference with
        | None -> reference := Some state
        | Some expected ->
          check bool_ "reopen reproduces the same delta" true
            (state = expected));
        Store.Live.close o.Store.Live.live
      done)

let test_live_rejections_never_reach_the_log () =
  with_dir (fun dir ->
      let opened = open_live dir in
      let live = opened.Store.Live.live in
      let wal_count () = Store.Live.(stats live).wal_records in
      (match Store.Live.insert live ~name:"d0.xml" ~xml:doc_a with
      | Error (Store.Live.Mutation_error (Store.Delta.Duplicate_document _)) ->
        ()
      | _ -> Alcotest.fail "duplicate insert accepted");
      (match Store.Live.delete live ~name:"ghost.xml" with
      | Error (Store.Live.Mutation_error (Store.Delta.Unknown_document _)) ->
        ()
      | _ -> Alcotest.fail "unknown delete accepted");
      (match Store.Live.insert live ~name:"bad.xml" ~xml:"<nope" with
      | Error (Store.Live.Mutation_error (Store.Delta.Parse_failed _)) -> ()
      | _ -> Alcotest.fail "unparseable insert accepted");
      check int_ "validate-before-log: nothing was appended" 0 (wal_count ());
      Store.Live.close live)

let test_live_checkpoint () =
  with_dir (fun dir ->
      let opened = open_live dir in
      let live = opened.Store.Live.live in
      List.iter (apply_live_exn live) script;
      let path =
        match Store.Live.checkpoint live with
        | Ok p -> p
        | Error e ->
          Alcotest.failf "checkpoint: %s" (Store.Live.error_to_string e)
      in
      check bool_ "image written where promised" true (Sys.file_exists path);
      check string_ "default checkpoint path" (Store.Live.checkpoint_path ~dir)
        path;
      let stats = Store.Live.stats live in
      check int_ "wal reset" 0 stats.Store.Live.wal_records;
      check int_ "delta folded in" 0 stats.Store.Live.delta_documents;
      check int_ "one checkpoint taken" 1 stats.Store.Live.checkpoints;
      (* the swapped-in base answers exactly like a rebuild *)
      assert_equals_rebuild ~what:"after checkpoint" (live_snapshot live)
        (sim_after script);
      Store.Live.close live;
      (* reopening WITHOUT the seed corpus finds the checkpoint *)
      let reopened = open_live ~base:false dir in
      (match reopened.Store.Live.base_source with
      | Store.Live.From_checkpoint p -> check string_ "from checkpoint" path p
      | _ -> Alcotest.fail "checkpoint image was not preferred");
      assert_equals_rebuild ~what:"reopened from checkpoint"
        (live_snapshot reopened.Store.Live.live)
        (sim_after script);
      (* and mutations keep working on top of the new base *)
      apply_live_exn reopened.Store.Live.live
        (Store.Wal.Insert { name = "post.xml"; xml = doc_a });
      let sim = sim_after script in
      sim_apply sim (Store.Wal.Insert { name = "post.xml"; xml = doc_a });
      assert_equals_rebuild ~what:"mutation after checkpoint"
        (live_snapshot reopened.Store.Live.live)
        sim;
      Store.Live.close reopened.Store.Live.live)

(* ------------------------------------------------------------------ *)
(* Group commit at the live-store level: concurrent writers coalesce,
   every acknowledgement is durable. *)

let join_all threads = List.iter Thread.join threads

let test_live_group_commit_concurrency () =
  with_dir (fun dir ->
      let opened = open_live ~wal_batch:8 dir in
      let live = opened.Store.Live.live in
      let writers = 8 and per = 8 in
      let failures = Atomic.make 0 in
      join_all
        (List.init writers (fun w ->
             Thread.create
               (fun () ->
                 for i = 0 to per - 1 do
                   let name = Printf.sprintf "w%d_%d.xml" w i in
                   match Store.Live.insert live ~name ~xml:doc_a with
                   | Ok () -> ()
                   | Error _ -> Atomic.incr failures
                 done)
               ()));
      check int_ "no concurrent writer failed" 0 (Atomic.get failures);
      let stats = Store.Live.stats live in
      check int_ "every record logged" (writers * per)
        stats.Store.Live.wal_records;
      check int_ "every record went through group commit" (writers * per)
        stats.Store.Live.gc_records;
      check bool_ "batches bounded by wal_batch" true
        (stats.Store.Live.gc_largest_batch >= 1
        && stats.Store.Live.gc_largest_batch <= 8);
      check bool_ "batch count is consistent" true
        (stats.Store.Live.gc_batches >= (writers * per + 7) / 8
        && stats.Store.Live.gc_batches <= writers * per);
      Store.Live.close live;
      let reopened = open_live dir in
      check int_ "recovery replays every acked insert" (writers * per)
        reopened.Store.Live.replay.Store.Delta.applied;
      check int_ "all documents present" (writers * per)
        (List.length
           (Store.Delta.documents (Store.Live.delta reopened.Store.Live.live)));
      Store.Live.close reopened.Store.Live.live)

let test_live_group_commit_crash_recovers_acked () =
  (* kill the process mid-batch at several armed ops: after reopen,
     every ACKED insert must be present (un-acked frames from the
     crashed batch may or may not be, both are legal post-op states) *)
  List.iter
    (fun (crash_op, at_byte) ->
      with_dir (fun dir ->
          let fault = Store.Fault.create () in
          let opened = open_live ~fault ~wal_batch:8 dir in
          let live = opened.Store.Live.live in
          Store.Fault.arm_write_fault fault ~op:crash_op
            (Store.Fault.Torn_write { at_byte });
          let lock = Mutex.create () in
          let acked = ref [] in
          join_all
            (List.init 4 (fun w ->
                 Thread.create
                   (fun () ->
                     for i = 0 to 5 do
                       let name = Printf.sprintf "c%d_%d.xml" w i in
                       match Store.Live.insert live ~name ~xml:doc_c with
                       | Ok () ->
                         Mutex.protect lock (fun () -> acked := name :: !acked)
                       | Error _ -> ()
                       | exception Store.Fault.Write_crash _ -> ()
                     done)
                   ()));
          Store.Live.close live;
          let reopened = open_live dir in
          let recovered =
            List.filter_map
              (function
                | Store.Wal.Insert { name; _ } -> Some name
                | _ -> None)
              reopened.Store.Live.recovery.Store.Wal.records
          in
          List.iter
            (fun name ->
              check bool_
                (Printf.sprintf
                   "crash at op %d byte %d: acked %s recovered" crash_op
                   at_byte name)
                true
                (List.mem name recovered))
            !acked;
          Store.Live.close reopened.Store.Live.live))
    [ (0, 3); (5, 0); (11, 7); (17, 25) ]

let test_live_failed_batch_revalidates () =
  (* fsync failures fail whole batches while writers race over a few
     shared names, so the records queued behind each failed batch must
     be re-derived from the committed value: afterwards the log holds
     only records that apply strictly in order, and the store, before
     and after a reopen, equals that strict replay *)
  with_dir (fun dir ->
      let fault = Store.Fault.create () in
      let opened = open_live ~fault ~wal_batch:4 dir in
      let live = opened.Store.Live.live in
      List.iter
        (fun op -> Store.Fault.arm_write_fault fault ~op Store.Fault.Fail_fsync)
        [ 3; 9; 15; 21; 27; 33; 39; 45 ];
      let names = [| "d0.xml"; "d1.xml"; "x0.xml"; "x1.xml"; "x2.xml" |] in
      let xmls = [| doc_a; doc_b; doc_c |] in
      join_all
        (List.init 6 (fun w ->
             Thread.create
               (fun () ->
                 let rng = Random.State.make [| 23; w |] in
                 for _ = 1 to 25 do
                   let name = names.(Random.State.int rng (Array.length names)) in
                   let xml = xmls.(Random.State.int rng (Array.length xmls)) in
                   let record =
                     match Random.State.int rng 3 with
                     | 0 -> Store.Wal.Insert { name; xml }
                     | 1 -> Store.Wal.Delete { name }
                     | _ -> Store.Wal.Update { name; xml }
                   in
                   ignore (apply_live live record)
                 done)
               ()));
      check bool_ "fsync failures fired" true
        ((Store.Fault.stats fault).Store.Fault.failed_fsyncs > 0);
      let state d =
        (List.map fst (Store.Delta.documents d), Store.Delta.tombstone_count d)
      in
      let before = state (Store.Live.delta live) in
      Store.Live.close live;
      let reopened = open_live dir in
      let strict =
        List.fold_left
          (fun (i, d) record ->
            match Store.Delta.apply d record with
            | Ok d -> (i + 1, d)
            | Error e ->
              Alcotest.failf "logged record %d does not apply: %s" i
                (Store.Delta.mutation_error_to_string e))
          (0, Store.Delta.create ~base:(mk_base ()))
          reopened.Store.Live.recovery.Store.Wal.records
        |> snd |> state
      in
      check bool_ "store = strict replay of its log" true (before = strict);
      check bool_ "reopened store = strict replay of its log" true
        (state (Store.Live.delta reopened.Store.Live.live) = strict);
      Store.Live.close reopened.Store.Live.live)

(* ------------------------------------------------------------------ *)
(* Two-level delta: freeze / prepare / install, abort, and the crash
   windows in between. *)

let prefix_ops = List.filteri (fun i _ -> i < 3) script
let suffix_ops = List.filteri (fun i _ -> i >= 3) script

let begin_exn live =
  match Store.Live.checkpoint_begin live with
  | Ok token -> token
  | Error e ->
    Alcotest.failf "checkpoint_begin: %s" (Store.Live.error_to_string e)

let prepare_exn live token =
  match Store.Live.checkpoint_prepare live token with
  | Ok (merged, path) -> (merged, path)
  | Error e ->
    Alcotest.failf "checkpoint_prepare: %s" (Store.Live.error_to_string e)

let test_live_two_level_checkpoint () =
  with_dir (fun dir ->
      let opened = open_live dir in
      let live = opened.Store.Live.live in
      List.iter (apply_live_exn live) prefix_ops;
      let token = begin_exn live in
      (* mutations keep flowing while the checkpoint is in flight *)
      List.iter (apply_live_exn live) suffix_ops;
      let st = Store.Live.stats live in
      check bool_ "in progress" true st.Store.Live.checkpoint_in_progress;
      check int_ "frozen segment holds the prefix docs" 2
        st.Store.Live.frozen_documents;
      check int_ "frozen segment holds the prefix tombstones" 2
        st.Store.Live.frozen_tombstones;
      check int_ "live log holds only the suffix" (List.length suffix_ops)
        st.Store.Live.wal_records;
      check bool_ "rotated log on disk" true
        (Sys.file_exists (Store.Live.frozen_wal_path ~dir));
      (* a second begin is refused while one is in flight *)
      (match Store.Live.checkpoint_begin live with
      | Error Store.Live.Checkpoint_in_progress -> ()
      | Ok _ -> Alcotest.fail "overlapping checkpoint_begin accepted"
      | Error e ->
        Alcotest.failf "wanted Checkpoint_in_progress, got %s"
          (Store.Live.error_to_string e));
      (* reads during the in-flight checkpoint see base ∪ delta *)
      assert_equals_rebuild ~what:"during checkpoint" (live_snapshot live)
        (sim_after script);
      let merged, path = prepare_exn live token in
      Store.Live.checkpoint_install live merged path;
      let st = Store.Live.stats live in
      check bool_ "no longer in progress" false
        st.Store.Live.checkpoint_in_progress;
      check int_ "one checkpoint installed" 1 st.Store.Live.checkpoints;
      check int_ "suffix survives in the live log" (List.length suffix_ops)
        st.Store.Live.wal_records;
      check int_ "delta is the replayed suffix" 1
        st.Store.Live.delta_documents;
      check bool_ "frozen log removed" false
        (Sys.file_exists (Store.Live.frozen_wal_path ~dir));
      assert_equals_rebuild ~what:"after install" (live_snapshot live)
        (sim_after script);
      Store.Live.close live;
      (* reopen without the seed: checkpoint image + suffix replay *)
      let reopened = open_live ~base:false dir in
      (match reopened.Store.Live.base_source with
      | Store.Live.From_checkpoint _ -> ()
      | _ -> Alcotest.fail "checkpoint image was not preferred");
      check bool_ "reopen replays exactly the suffix" true
        (reopened.Store.Live.recovery.Store.Wal.records = suffix_ops);
      assert_equals_rebuild ~what:"reopened after two-level checkpoint"
        (live_snapshot reopened.Store.Live.live)
        (sim_after script);
      Store.Live.close reopened.Store.Live.live)

let test_live_checkpoint_abort () =
  with_dir (fun dir ->
      let opened = open_live dir in
      let live = opened.Store.Live.live in
      List.iter (apply_live_exn live) prefix_ops;
      let _token = begin_exn live in
      List.iter (apply_live_exn live) suffix_ops;
      (match Store.Live.checkpoint_abort live with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "abort: %s" (Store.Live.error_to_string e));
      let st = Store.Live.stats live in
      check bool_ "abort clears the in-flight state" false
        st.Store.Live.checkpoint_in_progress;
      check int_ "abort merges frozen + suffix back into one log"
        (List.length script) st.Store.Live.wal_records;
      check bool_ "frozen log removed" false
        (Sys.file_exists (Store.Live.frozen_wal_path ~dir));
      assert_equals_rebuild ~what:"after abort" (live_snapshot live)
        (sim_after script);
      (* the store keeps working: a full checkpoint after the abort *)
      (match Store.Live.checkpoint live with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "checkpoint after abort: %s"
          (Store.Live.error_to_string e));
      Store.Live.close live;
      let reopened = open_live ~base:false dir in
      assert_equals_rebuild ~what:"reopened after abort + checkpoint"
        (live_snapshot reopened.Store.Live.live)
        (sim_after script);
      Store.Live.close reopened.Store.Live.live)

(* The image is fsynced before the frozen log goes. An injected fsync
   failure of the image fails prepare with a typed [Image_error] and
   the checkpoint aborts back to one log; a torn image write (the
   process dies mid-save) leaves both logs behind. Either way a reopen
   serves every acknowledged mutation. *)
let test_live_image_fault () =
  with_dir (fun dir ->
      let fault = Store.Fault.create () in
      Store.Fault.arm_image_fault fault ~save:0 Store.Fault.Fail_fsync;
      let live = (open_live ~fault dir).Store.Live.live in
      List.iter (apply_live_exn live) prefix_ops;
      (match Store.Live.checkpoint live with
      | Error (Store.Live.Image_error (Store.Db.Io_error _)) -> ()
      | Error e ->
        Alcotest.failf "wanted an image I/O error, got %s"
          (Store.Live.error_to_string e)
      | Ok _ -> Alcotest.fail "checkpoint succeeded over a failed image fsync");
      let st = Store.Live.stats live in
      check bool_ "no checkpoint left in flight" false
        st.Store.Live.checkpoint_in_progress;
      check int_ "abort restores one log" (List.length prefix_ops)
        st.Store.Live.wal_records;
      check bool_ "frozen log removed" false
        (Sys.file_exists (Store.Live.frozen_wal_path ~dir));
      let image = Store.Live.checkpoint_path ~dir in
      check bool_ "no image installed" false (Sys.file_exists image);
      check bool_ "temporary image removed" false (Sys.file_exists (image ^ ".tmp"));
      check int_ "the fsync failure was injected" 1
        (Store.Fault.stats fault).Store.Fault.failed_fsyncs;
      List.iter (apply_live_exn live) suffix_ops;
      Store.Live.close live;
      let live = (open_live ~fault dir).Store.Live.live in
      assert_equals_rebuild ~what:"reopened after a failed image fsync"
        (live_snapshot live) (sim_after script);
      Store.Fault.arm_image_fault fault ~save:1
        (Store.Fault.Torn_write { at_byte = 100 });
      (match Store.Live.checkpoint live with
      | exception Store.Fault.Write_crash _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "a torn image write did not crash");
      Store.Live.close live;
      check bool_ "torn image not installed" false (Sys.file_exists image);
      let reopened = open_live ~fault dir in
      check bool_ "recovery merges the rotated log" true
        (reopened.Store.Live.recovery.Store.Wal.records = script);
      assert_equals_rebuild ~what:"reopened after a torn image write"
        (live_snapshot reopened.Store.Live.live)
        (sim_after script);
      Store.Live.close reopened.Store.Live.live)

let test_live_checkpoint_crash_before_install () =
  (* die with the rotated log still on disk (before OR after the
     image was prepared): recovery must merge frozen + suffix and
     reproduce the full post-op state either way *)
  List.iter
    (fun prepare_first ->
      with_dir (fun dir ->
          let opened = open_live dir in
          let live = opened.Store.Live.live in
          List.iter (apply_live_exn live) prefix_ops;
          let token = begin_exn live in
          List.iter (apply_live_exn live) suffix_ops;
          if prepare_first then ignore (prepare_exn live token);
          (* crash: drop every handle, leaving wal.frozen.log behind *)
          Store.Live.close live;
          check bool_ "rotated log left behind" true
            (Sys.file_exists (Store.Live.frozen_wal_path ~dir));
          let reopened = open_live ~base:(not prepare_first) dir in
          (match reopened.Store.Live.base_source with
          | Store.Live.From_checkpoint _ when prepare_first -> ()
          | Store.Live.Provided when not prepare_first -> ()
          | _ -> Alcotest.fail "unexpected base source after crash");
          check bool_ "recovery merges the rotated log" true
            (reopened.Store.Live.recovery.Store.Wal.records = script);
          check bool_ "merged log is singular again" false
            (Sys.file_exists (Store.Live.frozen_wal_path ~dir));
          assert_equals_rebuild
            ~what:
              (if prepare_first then "crash after prepare"
               else "crash before prepare")
            (live_snapshot reopened.Store.Live.live)
            (sim_after script);
          (* recovery is idempotent over the merged log *)
          Store.Live.close reopened.Store.Live.live;
          let again = open_live ~base:(not prepare_first) dir in
          check bool_ "second recovery identical" true
            (again.Store.Live.recovery.Store.Wal.records = script);
          Store.Live.close again.Store.Live.live))
    [ false; true ]

let test_live_ingest_during_checkpoint_stress () =
  (* writers and readers race a concurrent checkpoint; afterwards the
     store holds exactly the base script + every acked insert, and a
     reopen agrees *)
  with_dir (fun dir ->
      let opened = open_live ~wal_batch:8 dir in
      let live = opened.Store.Live.live in
      List.iter (apply_live_exn live) script;
      let writer_failures = Atomic.make 0 in
      let reader_failures = Atomic.make 0 in
      let ck_result = ref (Ok "") in
      let stop_readers = Atomic.make false in
      let writers = 3 and per = 12 in
      let reader =
        Thread.create
          (fun () ->
            while not (Atomic.get stop_readers) do
              (match
                 Service.Engine.exec ~k:5 (live_snapshot live)
                   (Service.Engine.Ranked { terms = [ "search" ] })
               with
              | Ok _ -> ()
              | Error _ -> Atomic.incr reader_failures);
              Thread.yield ()
            done)
          ()
      in
      let writer_threads =
        List.init writers (fun w ->
            Thread.create
              (fun () ->
                for i = 0 to per - 1 do
                  let name = Printf.sprintf "s%d_%d.xml" w i in
                  match Store.Live.insert live ~name ~xml:doc_c with
                  | Ok () -> ()
                  | Error _ -> Atomic.incr writer_failures
                done)
              ())
      in
      let ck_thread =
        Thread.create (fun () -> ck_result := Store.Live.checkpoint live) ()
      in
      join_all writer_threads;
      Thread.join ck_thread;
      Atomic.set stop_readers true;
      Thread.join reader;
      check int_ "no writer failed" 0 (Atomic.get writer_failures);
      check int_ "no reader failed" 0 (Atomic.get reader_failures);
      (match !ck_result with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "concurrent checkpoint: %s"
          (Store.Live.error_to_string e));
      let live_total t =
        let st = Store.Live.stats t in
        (Store.Db.stats (Store.Live.base t)).Store.Db.documents
        - st.Store.Live.tombstones + st.Store.Live.delta_documents
      in
      let expected = 4 + (writers * per) in
      check int_ "every acked insert is live" expected (live_total live);
      Store.Live.close live;
      let reopened = open_live ~base:false dir in
      check int_ "every acked insert survives reopen" expected
        (live_total reopened.Store.Live.live);
      Store.Live.close reopened.Store.Live.live)

(* ------------------------------------------------------------------ *)
(* Service layer: coordinator, protocol, server dispatch *)

let with_service ?(base = true) ?every_docs f =
  with_dir (fun dir ->
      let opened = open_live ~base dir in
      let live = opened.Store.Live.live in
      let scheduler =
        Service.Scheduler.create ~workers:1 ~queue_depth:8
          (live_snapshot live)
      in
      let updates =
        Service.Updates.create ?every_docs ~live ~scheduler ()
      in
      Fun.protect
        ~finally:(fun () ->
          Service.Updates.shutdown updates;
          Service.Scheduler.shutdown scheduler;
          Store.Live.close live)
        (fun () -> f scheduler updates))

let json_member name json =
  match Service.Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

let json_bool name json =
  match Service.Json.to_bool_opt (json_member name json) with
  | Some b -> b
  | None -> Alcotest.failf "%S is not a bool" name

let json_int name json =
  match Service.Json.to_int_opt (json_member name json) with
  | Some i -> i
  | None -> Alcotest.failf "%S is not an int" name

let test_updates_coordinator () =
  with_service (fun scheduler updates ->
      let gen0 = (Service.Scheduler.snapshot scheduler).Service.Engine.generation in
      (match Service.Updates.insert updates ~name:"new1.xml" ~xml:doc_a with
      | Ok g -> check int_ "insert bumps the generation" (gen0 + 1) g
      | Error e ->
        Alcotest.failf "insert: %s" (Service.Updates.error_message e));
      (* readers see the new document through the ordinary path *)
      (match
         Service.Scheduler.run scheduler ~k:10
           (Service.Engine.Ranked { terms = [ "search" ] })
       with
      | Ok (Ok r) ->
        check bool_ "inserted doc is ranked" true
          (List.exists
             (fun (row : Service.Engine.row) -> row.tag = "new1.xml")
             r.Service.Engine.rows)
      | Ok (Error e) ->
        Alcotest.failf "ranked: %s" (Service.Engine.error_message e)
      | Error _ -> Alcotest.fail "admission failed");
      (match Service.Updates.delete updates ~name:"d3.xml" with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "delete: %s" (Service.Updates.error_message e));
      (* rejected mutations do not bump the generation *)
      let gen_before =
        (Service.Scheduler.snapshot scheduler).Service.Engine.generation
      in
      (match Service.Updates.insert updates ~name:"new1.xml" ~xml:doc_a with
      | Error (Service.Updates.Store_error
                 (Store.Live.Mutation_error (Store.Delta.Duplicate_document _)))
        ->
        ()
      | _ -> Alcotest.fail "duplicate accepted");
      check int_ "rejection leaves the generation" gen_before
        (Service.Scheduler.snapshot scheduler).Service.Engine.generation;
      (* checkpoint installs a delta-free snapshot at a new generation *)
      (match Service.Updates.checkpoint updates with
      | Ok (Service.Updates.Completed (_path, g)) ->
        check int_ "checkpoint bumps the generation" (gen_before + 1) g
      | Ok Service.Updates.Started ->
        Alcotest.fail "waiting checkpoint answered Started"
      | Error e ->
        Alcotest.failf "checkpoint: %s" (Service.Updates.error_message e));
      check bool_ "post-checkpoint snapshot has no delta" true
        ((Service.Scheduler.snapshot scheduler).Service.Engine.delta = None))

(* Regression: the snapshot published after an ack serves the
   acknowledged document. A delta index built lazily from a mutable
   delta could be stored after a concurrent commit changed the delta,
   and later publishes then served that stale index without the
   writer's own document. *)
(* an untombstoned base name or a name in the delta catalog *)
let served (snap : Service.Engine.snapshot) name =
  let in_base =
    match Store.Catalog.document_id (Store.Db.catalog snap.Service.Engine.db) name with
    | None -> false
    | Some d -> (
      match snap.Service.Engine.delta with
      | None -> true
      | Some dv -> not dv.Service.Engine.tombstones.(d))
  in
  in_base
  ||
  match snap.Service.Engine.delta with
  | Some { Service.Engine.delta_db = Some (ddb, _); _ } ->
    Store.Catalog.document_id (Store.Db.catalog ddb) name <> None
  | _ -> false

let test_read_your_writes () =
  let articles = 150 and writers = 8 and per = 60 in
  let cfg =
    {
      Workload.Corpus.default with
      articles;
      seed = 11;
      chapters_per_article = 1;
      sections_per_chapter = 2;
      paragraphs_per_section = 2;
      words_per_paragraph = 10;
    }
  in
  let base = Store.Db.of_documents (List.of_seq (Workload.Corpus.generate cfg)) in
  (* one written article per writer: each publish indexes every
     pending one, which gives a concurrent commit time to land *)
  let written =
    Workload.Corpus.generate
      { cfg with articles = writers; seed = 12; sections_per_chapter = 1 }
    |> Seq.map (fun (_, tree) -> Xmlkit.Printer.to_string tree)
    |> Array.of_seq
  in
  with_dir (fun dir ->
      let live =
        match Store.Live.open_dir ~base ~dir () with
        | Ok o -> o.Store.Live.live
        | Error e -> Alcotest.failf "open_dir: %s" (Store.Live.error_to_string e)
      in
      let scheduler =
        Service.Scheduler.create ~workers:1 ~queue_depth:8 (live_snapshot live)
      in
      let updates = Service.Updates.create ~live ~scheduler () in
      Fun.protect
        ~finally:(fun () ->
          Service.Updates.shutdown updates;
          Service.Scheduler.shutdown scheduler;
          Store.Live.close live)
        (fun () ->
          let refused = Atomic.make 0 and missed = Atomic.make 0 in
          join_all
            (List.init writers (fun w ->
                 Thread.create
                   (fun () ->
                     for i = 0 to per - 1 do
                       let name, outcome =
                         if i mod 2 = 0 then begin
                           let name =
                             Printf.sprintf "article-%d.xml"
                               (((w * per / 2) + (i / 2)) mod articles)
                           in
                           (name, Service.Updates.update updates ~name ~xml:written.(w))
                         end
                         else begin
                           let name = Printf.sprintf "ryw-%d-%d.xml" w i in
                           (name, Service.Updates.insert updates ~name ~xml:written.(w))
                         end
                       in
                       match outcome with
                       | Error _ -> Atomic.incr refused
                       | Ok _ ->
                         if not (served (Service.Scheduler.snapshot scheduler) name)
                         then Atomic.incr missed
                     done)
                   ()));
          check int_ "no mutation refused" 0 (Atomic.get refused);
          check int_ "every ack is served by the snapshot after it" 0
            (Atomic.get missed)))

(* Writers acknowledged by one group-commit batch find one committed
   value, and it is published once: the generation moves at most once
   per batch and once per checkpoint install (an automatic one runs
   every 120 documents + tombstones), and every ack is still served by
   the snapshot after it. *)
let test_publish_once_per_value () =
  let articles = 150 and writers = 8 and per = 60 in
  let cfg =
    {
      Workload.Corpus.default with
      articles;
      seed = 13;
      chapters_per_article = 1;
      sections_per_chapter = 2;
      paragraphs_per_section = 2;
      words_per_paragraph = 10;
    }
  in
  let base = Store.Db.of_documents (List.of_seq (Workload.Corpus.generate cfg)) in
  let written =
    Workload.Corpus.generate
      { cfg with articles = writers; seed = 14; sections_per_chapter = 1 }
    |> Seq.map (fun (_, tree) -> Xmlkit.Printer.to_string tree)
    |> Array.of_seq
  in
  with_dir (fun dir ->
      let live =
        match Store.Live.open_dir ~base ~dir () with
        | Ok o -> o.Store.Live.live
        | Error e -> Alcotest.failf "open_dir: %s" (Store.Live.error_to_string e)
      in
      let scheduler =
        Service.Scheduler.create ~workers:1 ~queue_depth:8 (live_snapshot live)
      in
      let updates = Service.Updates.create ~every_docs:120 ~live ~scheduler () in
      Fun.protect
        ~finally:(fun () ->
          Service.Updates.shutdown updates;
          Service.Scheduler.shutdown scheduler;
          Store.Live.close live)
        (fun () ->
          let generation () =
            (Service.Scheduler.snapshot scheduler).Service.Engine.generation
          in
          let g0 = generation () in
          let refused = Atomic.make 0 and missed = Atomic.make 0 in
          join_all
            (List.init writers (fun w ->
                 Thread.create
                   (fun () ->
                     for i = 0 to per - 1 do
                       let name, outcome =
                         if i mod 3 = 0 then begin
                           let name =
                             Printf.sprintf "article-%d.xml" (((w * per) + i) mod articles)
                           in
                           (name, Service.Updates.update updates ~name ~xml:written.(w))
                         end
                         else begin
                           let name = Printf.sprintf "once-%d-%d.xml" w i in
                           (name, Service.Updates.insert updates ~name ~xml:written.(w))
                         end
                       in
                       match outcome with
                       | Error _ -> Atomic.incr refused
                       | Ok g ->
                         let snap = Service.Scheduler.snapshot scheduler in
                         if g > snap.Service.Engine.generation || not (served snap name)
                         then Atomic.incr missed
                     done)
                   ()));
          while Service.Updates.checkpoint_in_progress updates do
            Thread.delay 0.005
          done;
          let s = Store.Live.stats live in
          let bumps = generation () - g0 in
          check int_ "no mutation refused" 0 (Atomic.get refused);
          check int_ "every ack is served by the snapshot after it" 0
            (Atomic.get missed);
          check bool_ "a checkpoint installed" true (s.Store.Live.checkpoints > 0);
          if bumps > s.Store.Live.gc_batches + s.Store.Live.checkpoints then
            Alcotest.failf
              "%d generation bumps for %d group-commit batches and %d checkpoints"
              bumps s.Store.Live.gc_batches s.Store.Live.checkpoints))

let test_protocol_mutation_roundtrip () =
  List.iter
    (fun req ->
      let line =
        Service.Json.to_string (Service.Protocol.request_to_json req)
      in
      match Service.Protocol.parse_request line with
      | Ok req' -> check bool_ ("roundtrip " ^ line) true (req = req')
      | Error e -> Alcotest.failf "parse %s: %s" line e)
    [
      Service.Protocol.Insert { name = "a.xml"; xml = "<a>1</a>" };
      Service.Protocol.Remove { name = "a.xml" };
      Service.Protocol.UpdateDoc { name = "a.xml"; xml = "<a>2</a>" };
      Service.Protocol.Checkpoint { wait = true };
      Service.Protocol.Checkpoint { wait = false };
      Service.Protocol.Exec
        {
          req =
            Service.Engine.Search
              {
                terms = [ "a"; "b" ];
                method_ = Service.Engine.Auto;
                complex = false;
                anchor = Some "sec";
              };
          k = Some 5;
          limits =
            { Core.Governor.timeout_s = None; max_steps = None;
              max_results = None };
          trace = false;
          parallelism = None;
          theta = None;
        };
    ]

let test_server_dispatch_mutations () =
  with_service (fun scheduler updates ->
      let handle req = Service.Server.handle ~updates scheduler req in
      let resp =
        handle (Service.Protocol.Insert { name = "new1.xml"; xml = doc_a })
      in
      check bool_ "insert acked" true (json_bool "ok" resp);
      check int_ "generation in the ack" 1 (json_int "generation" resp);
      (* duplicate insert: typed protocol error *)
      let resp =
        handle (Service.Protocol.Insert { name = "new1.xml"; xml = doc_a })
      in
      check bool_ "duplicate rejected" false (json_bool "ok" resp);
      (match
         Service.Json.to_string_opt
           (json_member "code" (json_member "error" resp))
       with
      | Some code -> check string_ "error code" "duplicate_document" code
      | None -> Alcotest.fail "error code missing");
      let resp = handle (Service.Protocol.Remove { name = "d3.xml" }) in
      check bool_ "delete acked" true (json_bool "ok" resp);
      let resp =
        handle (Service.Protocol.UpdateDoc { name = "new1.xml"; xml = doc_b })
      in
      check bool_ "update acked" true (json_bool "ok" resp);
      (* health reports updatability and the current generation *)
      let health = handle Service.Protocol.Health in
      check bool_ "updatable" true (json_bool "updatable" health);
      check int_ "generation tracks the mutations" 3
        (json_int "generation" health);
      (* stats carries the WAL/delta counters *)
      let stats = handle Service.Protocol.Stats in
      let upd = json_member "updates" stats in
      check int_ "wal_records" 3 (json_int "wal_records" upd);
      check int_ "delta_documents" 1 (json_int "delta_documents" upd);
      check int_ "tombstones" 1 (json_int "tombstones" upd);
      let delta = json_member "delta" stats in
      check int_ "delta.documents" 1 (json_int "documents" delta);
      (* checkpoint over the wire *)
      let resp = handle (Service.Protocol.Checkpoint { wait = true }) in
      check bool_ "checkpoint acked" true (json_bool "ok" resp);
      check int_ "checkpoint generation" 4 (json_int "generation" resp))

let await_checkpoint_idle updates =
  let deadline = Unix.gettimeofday () +. 30. in
  while
    Service.Updates.checkpoint_in_progress updates
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ();
    Unix.sleepf 0.002
  done;
  check bool_ "background checkpoint finished" false
    (Service.Updates.checkpoint_in_progress updates)

let test_updates_async_checkpoint () =
  with_service (fun scheduler updates ->
      (match Service.Updates.insert updates ~name:"az.xml" ~xml:doc_a with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "insert: %s" (Service.Updates.error_message e));
      (match Service.Updates.checkpoint ~wait:false updates with
      | Ok Service.Updates.Started -> ()
      | Ok (Service.Updates.Completed _) ->
        Alcotest.fail "async checkpoint answered Completed"
      | Error e ->
        Alcotest.failf "checkpoint request: %s"
          (Service.Updates.error_message e));
      await_checkpoint_idle updates;
      let snap = Service.Scheduler.snapshot scheduler in
      check bool_ "delta folded into the new base" true
        (snap.Service.Engine.delta = None);
      check string_ "snapshot source is the image" "checkpoint.tix"
        (Filename.basename snap.Service.Engine.source);
      check int_ "store counted the checkpoint" 1
        (Store.Live.stats (Service.Updates.live updates)).Store.Live
          .checkpoints;
      (* the learned-correction table was persisted alongside it *)
      check bool_ "feedback table persisted" true
        (Sys.file_exists
           (Filename.concat
              (Store.Live.dir (Service.Updates.live updates))
              "feedback.dat"));
      (* mutations keep working on the republished snapshot *)
      match Service.Updates.insert updates ~name:"post.xml" ~xml:doc_b with
      | Ok g ->
        check int_ "post-checkpoint mutation bumps the generation"
          (snap.Service.Engine.generation + 1)
          g
      | Error e ->
        Alcotest.failf "post-checkpoint insert: %s"
          (Service.Updates.error_message e))

let test_updates_auto_checkpoint_trigger () =
  with_service ~every_docs:2 (fun _scheduler updates ->
      let ok_insert name xml =
        match Service.Updates.insert updates ~name ~xml with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "insert %s: %s" name
            (Service.Updates.error_message e)
      in
      ok_insert "t1.xml" doc_a;
      ok_insert "t2.xml" doc_b;
      (* the second insert crossed the threshold; wait out the worker *)
      let live = Service.Updates.live updates in
      let deadline = Unix.gettimeofday () +. 30. in
      while
        (Store.Live.stats live).Store.Live.checkpoints < 1
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ();
        Unix.sleepf 0.002
      done;
      await_checkpoint_idle updates;
      check int_ "threshold triggered exactly one checkpoint" 1
        (Store.Live.stats live).Store.Live.checkpoints;
      check int_ "delta folded" 0
        (Store.Live.stats live).Store.Live.delta_documents)

let test_server_async_checkpoint_dispatch () =
  with_service (fun scheduler updates ->
      let handle req = Service.Server.handle ~updates scheduler req in
      let resp =
        handle (Service.Protocol.Insert { name = "az.xml"; xml = doc_a })
      in
      check bool_ "insert acked" true (json_bool "ok" resp);
      let resp = handle (Service.Protocol.Checkpoint { wait = false }) in
      check bool_ "async checkpoint acked" true (json_bool "ok" resp);
      check bool_ "acknowledged as started" true (json_bool "started" resp);
      await_checkpoint_idle updates;
      let health = handle Service.Protocol.Health in
      check bool_ "health reports the idle checkpoint state" false
        (json_bool "checkpoint_in_progress" health);
      let stats = handle Service.Protocol.Stats in
      let upd = json_member "updates" stats in
      check int_ "delta folded" 0 (json_int "delta_documents" upd);
      check bool_ "stats report the idle checkpoint state" false
        (json_bool "checkpoint_in_progress" upd);
      let gc = json_member "group_commit" upd in
      check bool_ "group-commit counters flow through stats" true
        (json_int "records" gc >= 1 && json_int "batches" gc >= 1))

let test_feedback_persistence_roundtrip () =
  let fb = Ir.Stats.Feedback.create () in
  Ir.Stats.Feedback.observe fb ~key:"ranked|alpha" ~est:100. ~actual:10.;
  Ir.Stats.Feedback.observe fb ~key:"search|beta" ~est:5. ~actual:50.;
  Ir.Stats.Feedback.observe fb ~key:"ranked|alpha" ~est:80. ~actual:8.;
  let payload = Ir.Stats.Feedback.to_string fb in
  (match Ir.Stats.Feedback.of_string payload with
  | None -> Alcotest.fail "roundtrip rejected its own serialization"
  | Some fb' ->
    List.iter
      (fun key ->
        check (Alcotest.float 1e-12)
          (Printf.sprintf "correction for %s survives" key)
          (Ir.Stats.Feedback.correction fb ~key)
          (Ir.Stats.Feedback.correction fb' ~key))
      [ "ranked|alpha"; "search|beta"; "never|observed" ];
    check int_ "observation count survives"
      (Ir.Stats.Feedback.observations fb)
      (Ir.Stats.Feedback.observations fb');
    check int_ "restored table starts at generation 0" 0
      (Ir.Stats.Feedback.generation fb'));
  check bool_ "garbage is rejected" true
    (Ir.Stats.Feedback.of_string "not a feedback table" = None);
  check bool_ "truncation is rejected" true
    (Ir.Stats.Feedback.of_string
       (String.sub payload 0 (String.length payload - 3))
    = None);
  (* the coordinator's file-level load path *)
  with_dir (fun dir ->
      check bool_ "no file yields no table" true
        (Service.Updates.load_feedback ~dir = None);
      let oc = open_out_bin (Filename.concat dir "feedback.dat") in
      output_string oc payload;
      close_out oc;
      match Service.Updates.load_feedback ~dir with
      | None -> Alcotest.fail "persisted table not loaded"
      | Some fb' ->
        check (Alcotest.float 1e-12) "loaded correction"
          (Ir.Stats.Feedback.correction fb ~key:"ranked|alpha")
          (Ir.Stats.Feedback.correction fb' ~key:"ranked|alpha"))

let test_anchored_search () =
  let snap = snapshot_exn (mk_base ()) in
  let search ?anchor method_ =
    match
      Service.Engine.exec ~k:20 snap
        (Service.Engine.Search
           { terms = [ "search" ]; method_; complex = false; anchor })
    with
    | Ok r -> r
    | Error e ->
      Alcotest.failf "anchored search: %s" (Service.Engine.error_message e)
  in
  let unanchored = search Service.Engine.Termjoin in
  let anchored = search ~anchor:"title" Service.Engine.Termjoin in
  check bool_ "anchored search finds rows" true
    (anchored.Service.Engine.rows <> []);
  List.iter
    (fun (row : Service.Engine.row) ->
      check string_ "every anchored row lies inside a title" "title" row.tag)
    anchored.Service.Engine.rows;
  List.iter
    (fun key ->
      check bool_ "anchored rows are a subset of the unanchored rows" true
        (List.mem key (row_keys unanchored)))
    (row_keys anchored);
  check bool_ "anchoring actually restricts" true
    (List.length anchored.Service.Engine.rows
    < List.length unanchored.Service.Engine.rows);
  (* Auto planning prices the anchor and agrees on the rows *)
  check bool_ "auto anchored rows = termjoin anchored rows" true
    (row_keys (search ~anchor:"title" Service.Engine.Auto)
    = row_keys anchored);
  (match (search ~anchor:"title" Service.Engine.Auto).Service.Engine.plan with
  | Some plan ->
    check bool_ "auto records a planner line" true
      (String.length plan > 0)
  | None -> Alcotest.fail "auto anchored search lost its plan");
  (* an unknown anchor tag matches nothing *)
  check int_ "unknown anchor yields no rows" 0
    (List.length
       (search ~anchor:"nosuchtag" Service.Engine.Genmeet).Service.Engine.rows)

let test_server_read_only_rejects_mutations () =
  let scheduler =
    Service.Scheduler.create ~workers:1 ~queue_depth:4
      (snapshot_exn (mk_base ()))
  in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown scheduler)
    (fun () ->
      List.iter
        (fun req ->
          let resp = Service.Server.handle scheduler req in
          check bool_ "read-only server rejects" false (json_bool "ok" resp);
          match
            Service.Json.to_string_opt
              (json_member "code" (json_member "error" resp))
          with
          | Some code -> check string_ "error code" "read_only" code
          | None -> Alcotest.fail "error code missing")
        [
          Service.Protocol.Insert { name = "a.xml"; xml = "<a/>" };
          Service.Protocol.Remove { name = "a.xml" };
          Service.Protocol.UpdateDoc { name = "a.xml"; xml = "<a/>" };
          Service.Protocol.Checkpoint { wait = true };
        ];
      let health = Service.Server.handle scheduler Service.Protocol.Health in
      check bool_ "read-only health says so" false
        (json_bool "updatable" health))

let test_scheduler_rejects_same_generation () =
  let scheduler =
    Service.Scheduler.create ~workers:1 ~queue_depth:4
      (snapshot_exn (mk_base ()))
  in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.shutdown scheduler)
    (fun () ->
      let current = Service.Scheduler.snapshot scheduler in
      (match Service.Scheduler.reload scheduler current with
      | Error (Service.Scheduler.Same_generation { generation }) ->
        check int_ "names the clashing generation"
          current.Service.Engine.generation generation
      | Ok () -> Alcotest.fail "same-generation reload accepted");
      (* a bumped generation goes through *)
      match
        Service.Scheduler.reload scheduler
          {
            current with
            Service.Engine.generation = current.Service.Engine.generation + 1;
          }
      with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "bumped reload rejected: %s"
          (Service.Scheduler.reload_error_to_string e))

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "updates"
    [
      ( "wal",
        [
          tc "roundtrip" `Quick test_wal_roundtrip;
          tc "torn write at every byte" `Quick test_wal_torn_write_every_byte;
          tc "fsync failure rolls back" `Quick
            test_wal_fsync_failure_rolls_back;
          tc "byte-flip corruption sweep" `Quick
            test_wal_corruption_sweep_byte_flips;
        ] );
      ( "group commit",
        [
          tc "append_many roundtrip" `Quick test_wal_append_many_roundtrip;
          tc "batched crash-point sweep" `Quick test_wal_batched_crash_sweep;
          tc "fsync failure fails the whole batch" `Quick
            test_wal_append_many_fsync_failure_rolls_back_whole_batch;
          tc "concurrent writers coalesce" `Quick
            test_live_group_commit_concurrency;
          tc "crash mid-batch recovers every ack" `Quick
            test_live_group_commit_crash_recovers_acked;
          tc "failed batch revalidates the queue" `Quick
            test_live_failed_batch_revalidates;
        ] );
      ( "delta",
        [
          tc "strict errors" `Quick test_delta_strict_errors;
          tc "update in place" `Quick test_delta_update_in_place;
          tc "lenient replay" `Quick test_delta_lenient_replay;
          tc "queries equal rebuild" `Quick test_delta_queries_equal_rebuild;
          tc "pick query over delta" `Quick test_pick_query_over_delta;
          tc "query cut after tombstone filter" `Quick
            test_query_tombstoned_top_rows;
          tc "interp over delta" `Quick test_interp_over_delta;
          tc "interp after restart" `Quick test_interp_after_restart;
          tc "interp deadline covers rebuild" `Quick
            test_interp_deadline_covers_rebuild;
          tc "interp statistics over delta" `Quick
            test_interp_statistics_over_delta;
          tc "interp budget over delta" `Quick test_interp_budget_over_delta;
          tc "interp rebuild across domains" `Quick
            test_interp_rebuild_across_domains;
          tc "one budget spans segments" `Quick test_budget_spans_segments;
        ] );
      ( "crash matrix",
        [ tc "crash-point sweep" `Quick test_crash_point_sweep ] );
      ( "live store",
        [
          tc "recovery idempotent" `Quick test_live_recovery_idempotent;
          tc "rejections never logged" `Quick
            test_live_rejections_never_reach_the_log;
          tc "checkpoint" `Quick test_live_checkpoint;
        ] );
      ( "two-level checkpoint",
        [
          tc "freeze / prepare / install" `Quick test_live_two_level_checkpoint;
          tc "abort restores one log" `Quick test_live_checkpoint_abort;
          tc "image fault aborts to one log" `Quick test_live_image_fault;
          tc "crash before install merges logs" `Quick
            test_live_checkpoint_crash_before_install;
          tc "ingest during checkpoint stress" `Quick
            test_live_ingest_during_checkpoint_stress;
        ] );
      ( "service",
        [
          tc "coordinator" `Quick test_updates_coordinator;
          tc "read your writes" `Quick test_read_your_writes;
          tc "publish once per value" `Quick test_publish_once_per_value;
          tc "protocol roundtrip" `Quick test_protocol_mutation_roundtrip;
          tc "server dispatch" `Quick test_server_dispatch_mutations;
          tc "async checkpoint" `Quick test_updates_async_checkpoint;
          tc "auto checkpoint trigger" `Quick
            test_updates_auto_checkpoint_trigger;
          tc "async checkpoint dispatch" `Quick
            test_server_async_checkpoint_dispatch;
          tc "feedback persistence" `Quick test_feedback_persistence_roundtrip;
          tc "anchored search" `Quick test_anchored_search;
          tc "read-only rejects" `Quick test_server_read_only_rejects_mutations;
          tc "same-generation reload" `Quick
            test_scheduler_rejects_same_generation;
        ] );
    ]
