(* Benchmark harness: regenerates every table of the paper's
   experimental evaluation (Sec. 6) plus the in-text Pick experiment,
   and a bechamel micro-benchmark group.

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe table1      # one experiment
     TIX_BENCH_ARTICLES=500 dune exec bench/main.exe   # smaller corpus

   The corpus is synthetic (the INEX IEEE collection is not
   redistributable) with query terms planted at the exact
   frequencies the paper's experiments select; Table 5 frequencies
   are scaled by 1/10 to fit the default corpus. Absolute times are
   not comparable to the paper's 2003 disk-resident setup; the
   shapes (who wins, how methods scale) are what EXPERIMENTS.md
   tracks. *)

let articles =
  match Sys.getenv_opt "TIX_BENCH_ARTICLES" with
  | Some s -> int_of_string s
  | None -> 2500

let runs =
  match Sys.getenv_opt "TIX_BENCH_RUNS" with
  | Some s -> max 3 (int_of_string s)
  | None -> 5

(* ------------------------------------------------------------------ *)
(* Workload definition *)

let tj_freqs = [ 20; 100; 200; 300; 500; 1000; 2000; 3000; 5500; 7000; 10000 ]
let t3_freqs = [ 20; 200; 1000; 3000; 7000 ]
let t4_term_count = 7
let t4_freq = 1500

(* Table 5 rows from the paper: term1 freq, term2 freq, result size.
   Terms are shared across queries through the frequency pool, as in
   the paper. *)
let table5_rows =
  [
    (121076, 44930, 27991);
    (121076, 79677, 462);
    (107269, 146477, 1219);
    (107269, 79677, 1212);
    (98405, 146477, 877);
    (121076, 146477, 1189);
    (90482, 68801, 116);
    (121076, 45988, 34);
    (121076, 107269, 320);
    (98405, 28044, 455);
    (146477, 68801, 1372);
    (121076, 68801, 249);
    (98405, 107269, 17);
  ]

let t5_scale = 10
let qa f = Printf.sprintf "qa%d" f
let qb f = Printf.sprintf "qb%d" f
let t4_term i = Printf.sprintf "qf%d" i
let pool_term f = Printf.sprintf "pool%d" f

let corpus_config () =
  (* table 1-3 pairs *)
  let tj_plants = List.concat_map (fun f -> [ (qa f, f); (qb f, f) ]) tj_freqs in
  (* table 4 terms *)
  let t4_plants = List.init t4_term_count (fun i -> (t4_term i, t4_freq)) in
  (* table 5: adjacency plants per ordered pair, plus singles topping
     each pooled term up to its scaled frequency *)
  let phrase_plants =
    List.map
      (fun (f1, f2, size) ->
        (pool_term f1, pool_term f2, max 1 (size / t5_scale)))
      table5_rows
  in
  let adj_of term =
    List.fold_left
      (fun acc (t1, t2, r) ->
        acc + (if t1 = term then r else 0) + if t2 = term then r else 0)
      0 phrase_plants
  in
  let pool_freqs =
    List.sort_uniq compare
      (List.concat_map (fun (f1, f2, _) -> [ f1; f2 ]) table5_rows)
  in
  let pool_plants =
    List.map
      (fun f ->
        let term = pool_term f in
        let target = f / t5_scale in
        (term, max 0 (target - adj_of term)))
      pool_freqs
  in
  {
    Workload.Corpus.default with
    articles;
    seed = 20030609;
    planted_terms = tj_plants @ t4_plants @ pool_plants;
    planted_phrases = phrase_plants;
  }

let build_db () =
  let cfg = corpus_config () in
  let t0 = Unix.gettimeofday () in
  let options = { Store.Db.default_options with keep_trees = false } in
  let db = Store.Db.load ~options (Workload.Corpus.generate cfg) in
  Printf.printf "corpus: %s (built in %.1fs)\n%!"
    (Format.asprintf "%a" Store.Db.pp_stats (Store.Db.stats db))
    (Unix.gettimeofday () -. t0);
  db

(* ------------------------------------------------------------------ *)
(* Timing methodology: each experiment runs [runs] times after one
   untimed warmup and reports the median; the JSON dump also carries
   the minimum of the samples. At runs=5 a couple of scheduler
   hiccups used to poison the old drop-extremes trimmed mean (e.g.
   table1/200/TermJoin read 4.26 ms against a 0.22 ms floor), so the
   floor is recorded alongside the median as the noise-free number.
   Runs start with a cold buffer pool. *)

let median samples =
  let s = List.sort compare samples in
  let n = List.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let minimum samples = List.fold_left Float.min infinity samples

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(int_of_float (p *. float_of_int (n - 1)))

(* Machine-readable results: every named measurement accumulates
   here and is dumped as JSON when the run finishes. *)
let bench_results : (string * float list) list ref = ref []

(* Measurements that are not times (allocated words), dumped with a
   unit of their own. *)
let bench_counts : (string * string * float list) list ref = ref []

let json_path =
  match Sys.getenv_opt "TIX_BENCH_JSON" with
  | Some p -> p
  | None -> "BENCH_results.json"

let write_results_json () =
  match List.rev !bench_results with
  | [] -> ()
  | entries ->
    let oc = open_out json_path in
    let count (name, unit, samples) =
      Printf.sprintf
        "  {\"experiment\": %S, \"articles\": %d, \"runs\": %d, \"unit\": %S, \
         \"median\": %.0f, \"min\": %.0f, \"samples\": [%s]}"
        name articles (List.length samples) unit (median samples)
        (minimum samples)
        (String.concat ", " (List.map (Printf.sprintf "%.0f") samples))
    in
    let entry (name, samples) =
      Printf.sprintf
        "  {\"experiment\": %S, \"articles\": %d, \"runs\": %d, \
         \"median_ns\": %.0f, \"min_ns\": %.0f, \"samples_ns\": [%s]}"
        name articles (List.length samples)
        (median samples *. 1e9)
        (minimum samples *. 1e9)
        (String.concat ", "
           (List.map (fun s -> Printf.sprintf "%.0f" (s *. 1e9)) samples))
    in
    (* host_cores makes concurrency-sensitive numbers (group-commit
       ingest ratios, parallel speedups) interpretable offline *)
    Printf.fprintf oc "{\"host_cores\": %d,\n\"results\": [\n"
      (Domain.recommended_domain_count ());
    output_string oc
      (String.concat ",\n"
         (List.map entry entries @ List.map count (List.rev !bench_counts)));
    output_string oc "\n]}\n";
    close_out oc;
    Printf.printf "\nwrote %s (%d measurements)\n%!" json_path
      (List.length entries)

let time_once pager f =
  Store.Pager.clear_pool pager;
  Store.Pager.reset_stats pager;
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  Unix.gettimeofday () -. t0

let measure ?record pager f =
  (* one untimed warmup run before sampling: the first execution of a
     code path otherwise shows up as an outlier (up to ~3x the median
     in recorded runs) and poisons the sample set *)
  ignore (time_once pager f : float);
  let samples = List.init runs (fun _ -> time_once pager f) in
  (match record with
  | Some name -> bench_results := (name, samples) :: !bench_results
  | None -> ());
  median samples

let count_emitted run =
  let n = ref 0 in
  let _ = run ~emit:(fun _ -> incr n) () in
  !n

(* ------------------------------------------------------------------ *)
(* Table printing *)

let print_header title columns =
  Printf.printf "\n== %s ==\n%!" title;
  Printf.printf "%-12s" "freq";
  List.iter (fun c -> Printf.printf "%12s" c) columns;
  print_newline ()

let print_row label cells =
  Printf.printf "%-12s" label;
  List.iter (fun v -> Printf.printf "%12.4f" v) cells;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Tables 1-4: TermJoin and the baselines *)

let term_methods ~mode ~enhanced ctx terms =
  let tj_run variant ~emit () =
    Access.Term_join.run ~variant ~mode ctx ~terms ~emit ()
  in
  let base =
    [
      ("Comp1", fun ~emit () -> Access.Composite.comp1 ~mode ctx ~terms ~emit ());
      ("Comp2", fun ~emit () -> Access.Composite.comp2 ~mode ctx ~terms ~emit ());
      ("GenMeet", fun ~emit () -> Access.Gen_meet.run ~mode ctx ~terms ~emit ());
      ("TermJoin", tj_run Access.Term_join.Plain);
    ]
  in
  if enhanced then base @ [ ("Enhanced", tj_run Access.Term_join.Enhanced) ]
  else base

let run_term_table ~name ~title ~mode ~enhanced ctx rows =
  let pager = Store.Element_store.pager ctx.Access.Ctx.elements in
  print_header title (List.map fst (term_methods ~mode ~enhanced ctx [ "x" ]));
  List.iter
    (fun (label, terms) ->
      let methods = term_methods ~mode ~enhanced ctx terms in
      let cells =
        List.map
          (fun (mname, run) ->
            measure
              ~record:(Printf.sprintf "%s/%s/%s" name label mname)
              pager
              (fun () -> count_emitted run))
          methods
      in
      print_row label cells)
    rows

let table1 ctx =
  run_term_table ~name:"table1"
    ~title:
      "Table 1: two terms, increasing term frequency, simple scoring (seconds)"
    ~mode:Access.Counter_scoring.Simple ~enhanced:false ctx
    (List.map (fun f -> (string_of_int f, [ qa f; qb f ])) tj_freqs)

let table2 ctx =
  run_term_table ~name:"table2"
    ~title:
      "Table 2: two terms, increasing term frequency, complex scoring (seconds)"
    ~mode:Access.Counter_scoring.Complex ~enhanced:true ctx
    (List.map (fun f -> (string_of_int f, [ qa f; qb f ])) tj_freqs)

let table3 ctx =
  run_term_table ~name:"table3"
    ~title:
      "Table 3: term1 fixed at 1000, term2 increasing, complex scoring (seconds)"
    ~mode:Access.Counter_scoring.Complex ~enhanced:true ctx
    (List.map (fun f -> (string_of_int f, [ qa 1000; qb f ])) t3_freqs)

let table4 ctx =
  run_term_table ~name:"table4"
    ~title:
      "Table 4: increasing number of query terms, terms at freq 1500, complex \
       scoring (seconds)"
    ~mode:Access.Counter_scoring.Complex ~enhanced:true ctx
    (List.map
       (fun k -> (string_of_int k, List.init k t4_term))
       [ 2; 3; 4; 5; 6; 7 ])

(* ------------------------------------------------------------------ *)
(* Table 5: PhraseFinder vs Comp3 *)

let table5 ctx =
  let pager = Store.Element_store.pager ctx.Access.Ctx.elements in
  Printf.printf
    "\n== Table 5: PhraseFinder vs composite of access methods (13 two-term \
     phrases; paper frequencies / %d) ==\n%!"
    t5_scale;
  Printf.printf "%5s %10s %10s %10s %12s %12s\n" "query" "term1" "term2"
    "result" "Comp3" "PhraseFinder";
  List.iteri
    (fun i (f1, f2, _) ->
      let phrase = [ pool_term f1; pool_term f2 ] in
      let result_size = List.length (Access.Phrase_finder.to_list ctx ~phrase) in
      let comp3 =
        measure
          ~record:(Printf.sprintf "table5/q%d/Comp3" (i + 1))
          pager
          (fun () ->
            count_emitted (fun ~emit () ->
                Access.Composite.comp3 ctx ~phrase ~emit ()))
      in
      let pf =
        measure
          ~record:(Printf.sprintf "table5/q%d/PhraseFinder" (i + 1))
          pager
          (fun () ->
            count_emitted (fun ~emit () ->
                Access.Phrase_finder.run ctx ~phrase ~emit ()))
      in
      Printf.printf "%5d %10d %10d %10d %12.4f %12.4f\n%!" (i + 1)
        (f1 / t5_scale) (f2 / t5_scale) result_size comp3 pf)
    table5_rows

(* ------------------------------------------------------------------ *)
(* Skip index: each access method with its seek-over-skip-table path
   toggled on and off, on workloads selective enough that most of the
   postings are skippable — the Sec. 6 observation that selective
   queries should not pay for the postings they discard. *)

let sampled_articles ctx ~every =
  match Store.Catalog.tag_id ctx.Access.Ctx.catalog "article" with
  | None -> [||]
  | Some id ->
    Store.Tag_index.nodes ctx.Access.Ctx.tags ~tag:id
    |> Array.to_list
    |> List.filter_map (fun (i : Store.Tag_index.item) ->
           if i.doc mod every = 0 then
             Some
               {
                 Access.Structural_join.doc = i.doc;
                 start = i.start;
                 end_ = i.end_;
                 level = i.level;
               }
           else None)
    |> Array.of_list
    |> Access.Structural_join.outermost

let skips ctx =
  let pager = Store.Element_store.pager ctx.Access.Ctx.elements in
  Printf.printf
    "\n== Skip index: seek-enabled vs sequential decoding (seconds) ==\n%!";
  Printf.printf "%-26s %12s %12s %10s\n" "experiment" "skips off" "skips on"
    "speedup";
  let pair name off on =
    let t_off = measure ~record:(name ^ "/skips=off") pager off in
    let t_on = measure ~record:(name ^ "/skips=on") pager on in
    Printf.printf "%-26s %12.4f %12.4f %9.1fx\n%!" name t_off t_on
      (t_off /. t_on)
  in
  (* galloping phrase intersection on the most selective Table 5 row:
     two frequent terms whose phrase almost never occurs — and on the
     densest row (query 1), where most probes hit and seeks cannot
     help, as the honest worst case *)
  let phrase_pair name phrase =
    pair ("phrase/" ^ name)
      (fun () ->
        count_emitted (fun ~emit () ->
            Access.Phrase_finder.run ~use_skips:false ctx ~phrase ~emit ()))
      (fun () ->
        count_emitted (fun ~emit () ->
            Access.Phrase_finder.run ctx ~phrase ~emit ()));
    pair ("comp3/" ^ name)
      (fun () ->
        count_emitted (fun ~emit () ->
            Access.Composite.comp3 ~use_skips:false ctx ~phrase ~emit ()))
      (fun () ->
        count_emitted (fun ~emit () ->
            Access.Composite.comp3 ctx ~phrase ~emit ()))
  in
  phrase_pair "selective" [ pool_term 121076; pool_term 45988 ];
  phrase_pair "dense" [ pool_term 121076; pool_term 44930 ];
  (* structural selection: postings of a frequent term semi-joined
     against 2% of the article subtrees — the cursor seeks from one
     subtree interval to the next *)
  let within = sampled_articles ctx ~every:50 in
  let cursor_of term =
    match Ir.Inverted_index.lookup ctx.Access.Ctx.index term with
    | Some p -> Ir.Postings.cursor p
    | None -> invalid_arg ("bench: unplanted term " ^ term)
  in
  pair "within/occurrences"
    (fun () ->
      Access.Structural_join.occurrences_within ~use_skips:false
        (cursor_of (qa 10000)) ~within
        ~emit:(fun _ _ -> ())
        ())
    (fun () ->
      Access.Structural_join.occurrences_within (cursor_of (qa 10000)) ~within
        ~emit:(fun _ _ -> ())
        ());
  pair "genmeet/within"
    (fun () ->
      count_emitted (fun ~emit () ->
          Access.Gen_meet.run ~within ~use_skips:false ctx
            ~terms:[ qa 10000; qb 10000 ]
            ~emit ()))
    (fun () ->
      count_emitted (fun ~emit () ->
          Access.Gen_meet.run ~within ctx
            ~terms:[ qa 10000; qb 10000 ]
            ~emit ()));
  (* document Top-K with max-score pruning: one dominant frequent
     term, two rare ones that become non-essential immediately *)
  let topk_terms = [ pool_term 146477; qa 20; qb 100 ] in
  pair "topk/docs-k10"
    (fun () ->
      List.length
        (Access.Ranked.top_k_docs ~use_skips:false ctx ~terms:topk_terms ~k:10))
    (fun () ->
      List.length (Access.Ranked.top_k_docs ctx ~terms:topk_terms ~k:10))

(* ------------------------------------------------------------------ *)
(* Decode throughput: sequential scan and skip seeks over the
   frame-of-reference bit-packed posting blocks, then snapshot
   open-to-first-pin latency of the mmap'd TIXDB004 reader at
   increasing index sizes. *)

(* deferred so a failed speedup assertion still writes the JSON *)
let bench_failures : string list ref = ref []

(* sample a thunk [runs] times after one warmup, record, return the
   floor (these are tight single-threaded loops; the minimum is the
   noise-free reading) *)
let sample_floor name f =
  ignore (f ());
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        let _ = f () in
        Unix.gettimeofday () -. t0)
  in
  bench_results := (name, samples) :: !bench_results;
  minimum samples

(* ------------------------------------------------------------------ *)
(* Planner: the static compile rule vs the cost-based choice. The
   static rule is frequency-blind — two or more terms always run the
   Comp1 baseline — so on frequent terms it walks nearly every
   subtree in the corpus. The costed planner prices every method from
   the collection statistics and the exact per-term occurrence
   counts; the adversarial (frequent-term) workload gates a >= 10x
   win over the static choice. *)

let planner_bench db ctx =
  let pager = Store.Element_store.pager ctx.Access.Ctx.elements in
  let stats = Store.Db.collection_stats db in
  let index = Store.Db.index db in
  let mode = Access.Counter_scoring.Simple in
  Printf.printf
    "\n== Planner: static compile rule vs cost-based choice (seconds) ==\n%!";
  Printf.printf "%-10s %10s %10s %9s  %s\n%!" "workload" "static" "costed"
    "speedup" "costed choice";
  List.iter
    (fun (name, terms) ->
      (* the frequency-blind static rule: >= 2 terms -> Comp1 *)
      let static_run () =
        List.length (Access.Composite.comp1_list ~mode ctx ~terms)
      in
      let d = Query.Planner.choose ~stats ~index ~terms () in
      let costed_run () =
        List.length
          (match d.Query.Planner.access with
          | Access.Pattern_exec.Term_join variant ->
            Access.Term_join.to_list ~variant ~mode ctx ~terms
          | Access.Pattern_exec.Gen_meet { use_skips } ->
            Access.Gen_meet.to_list ~use_skips ~mode ctx ~terms
          | Access.Pattern_exec.Comp1 ->
            Access.Composite.comp1_list ~mode ctx ~terms
          | Access.Pattern_exec.Comp2 ->
            Access.Composite.comp2_list ~mode ctx ~terms)
      in
      (* both plans must score the same element set *)
      let n_static = static_run () in
      let n_costed = costed_run () in
      if n_static <> n_costed then
        bench_failures :=
          Printf.sprintf
            "planner/%s: costed plan scored %d elements, static rule %d" name
            n_costed n_static
          :: !bench_failures;
      let t_static =
        measure ~record:(Printf.sprintf "planner/%s/static" name) pager
          static_run
      in
      let t_costed =
        measure ~record:(Printf.sprintf "planner/%s/costed" name) pager
          costed_run
      in
      let speedup = t_static /. t_costed in
      Printf.printf "%-10s %10.4f %10.4f %8.1fx  %s\n%!" name t_static t_costed
        speedup
        (Query.Planner.to_string d);
      if name = "frequent" && speedup < 10. then
        bench_failures :=
          Printf.sprintf
            "planner: costed choice only %.1fx over the static rule on the \
             frequent workload (>= 10x required)"
            speedup
          :: !bench_failures)
    [
      ("rare", [ qa 20; qb 20 ]);
      ("frequent", [ qa 10000; qb 10000 ]);
      ("mixed", [ qa 20; qb 10000 ]);
    ]

let decode_bench ctx =
  let index = ctx.Access.Ctx.index in
  (* the fattest posting list in the index, whatever the corpus size *)
  let term, _ =
    match Ir.Inverted_index.terms_by_freq index with
    | t :: _ -> t
    | [] -> failwith "decode bench: empty index"
  in
  let packed =
    match Ir.Inverted_index.lookup index term with
    | Some p -> p
    | None -> assert false
  in
  let n = Ir.Postings.length packed in
  Printf.printf
    "\n== Decode: packed posting throughput (term %S, %d occurrences, %d B) \
     ==\n%!"
    term n (Ir.Postings.byte_size packed);
  (* enough repetitions that one sample is ~4M occurrences; the
     allocation-free [scan] measures the codec, not the option boxing
     of the cursor API *)
  let reps = max 1 (4_000_000 / max 1 n) in
  let scan_packed () =
    let k = ref 0 in
    for _ = 1 to reps do
      Ir.Postings.scan packed (fun _ _ _ -> incr k)
    done;
    !k
  in
  let t_packed = sample_floor "decode/scan/packed" scan_packed in
  let occs_per_sample = float_of_int (reps * n) in
  Printf.printf "%-26s %10.1f M occ/s\n%!" "sequential scan, packed"
    (occs_per_sample /. t_packed /. 1e6);
  (* seeks through the skip table: ~1k ascending targets spread over
     the list, a fresh cursor per pass *)
  let arr = Array.of_list (Ir.Postings.to_list packed) in
  let stride = max 1 (Array.length arr / 1024) in
  let targets =
    Array.to_list arr
    |> List.filteri (fun i _ -> i mod stride = stride - 1)
    |> List.map (fun (o : Ir.Postings.occ) -> (o.doc, o.pos))
  in
  let ntargets = List.length targets in
  let seek_reps = max 1 (50_000 / max 1 ntargets) in
  let seek_packed () =
    for _ = 1 to seek_reps do
      let c = Ir.Postings.cursor packed in
      List.iter
        (fun (d, p) -> ignore (Ir.Postings.seek_pos c ~doc:d ~pos:p))
        targets
    done
  in
  let s_packed = sample_floor "decode/seek/packed" seek_packed in
  let seeks_per_sample = float_of_int (seek_reps * ntargets) in
  Printf.printf "%-26s %10.2f M seeks/s (%d targets)\n%!" "skip seeks, packed"
    (seeks_per_sample /. s_packed /. 1e6)
    ntargets;
  (* snapshot open + first pin at increasing corpus sizes: the mapped
     open checksums the file and defers all posting/page decoding *)
  Printf.printf "\n== Decode: mmap'd snapshot open + first pin ==\n%!";
  Printf.printf "%10s %12s %10s %12s %12s\n" "articles" "bytes" "open (ms)"
    "pin (us)" "lookup (ms)";
  let sizes =
    List.sort_uniq compare [ max 50 (articles / 10); max 120 (articles / 3); articles ]
  in
  List.iter
    (fun size ->
      (* an unplanted corpus: the planted-term load does not fit the
         smaller sizes, and open latency only needs bulk *)
      let cfg = { Workload.Corpus.default with articles = size; seed = 20030609 } in
      let options = { Store.Db.default_options with keep_trees = false } in
      let db = Store.Db.load ~options (Workload.Corpus.generate cfg) in
      (* a frequent term of this corpus, for the first-lookup row *)
      let probe_term =
        match Ir.Inverted_index.terms_by_freq (Store.Db.index db) with
        | (t, _) :: _ -> t
        | [] -> failwith "decode bench: empty index"
      in
      let path = Filename.temp_file "tix_bench" ".tix" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Store.Db.save db path;
          let open_pin () =
            let d = Store.Db.open_file_exn path in
            match
              Store.Pager.pin (Store.Element_store.pager (Store.Db.elements d))
            with
            | Ok () -> ()
            | Error e ->
              failwith
                (Format.asprintf "open bench pin: %a" Store.Pager.pp_read_error e)
          in
          let t_open =
            sample_floor (Printf.sprintf "decode/open/v4/articles=%d" size) open_pin
          in
          (* pin alone, on an already-open snapshot: the mapped pager
             is born pinned (O(1) republication) *)
          let pin_only =
            let d = Store.Db.open_file_exn path in
            let pager = Store.Element_store.pager (Store.Db.elements d) in
            fun () ->
              match Store.Pager.pin pager with
              | Ok () -> ()
              | Error e ->
                failwith
                  (Format.asprintf "pin bench: %a" Store.Pager.pp_read_error e)
          in
          let t_pin =
            sample_floor (Printf.sprintf "decode/pin/v4/articles=%d" size) pin_only
          in
          (* open + first term lookup: the mapped dictionary decodes
             lazily, so the reader pays its probe-table build here
             rather than at open *)
          let open_lookup () =
            let d = Store.Db.open_file_exn path in
            match Ir.Inverted_index.lookup (Store.Db.index d) probe_term with
            | Some _ -> ()
            | None -> failwith "decode bench: probe term missing after open"
          in
          let t_lookup =
            sample_floor
              (Printf.sprintf "decode/open+lookup/v4/articles=%d" size)
              open_lookup
          in
          Printf.printf "%10d %12d %10.2f %12.1f %12.2f\n%!" size
            (Unix.stat path).Unix.st_size (t_open *. 1000.) (t_pin *. 1e6)
            (t_lookup *. 1000.)))
    sizes

(* ------------------------------------------------------------------ *)
(* Intra-query parallelism: the same query partitioned across 1, 2
   and 4 domains (Exec.Par). The 1-domain column is the plain
   sequential access method — the honest baseline the fan-out must
   beat. Results are identical by construction (the determinism
   property tests check byte-equality); this table only measures wall
   time. *)

let parallel_bench ctx =
  let pager = Store.Element_store.pager ctx.Access.Ctx.elements in
  Printf.printf
    "\n== Parallel: intra-query fan-out across domains (seconds) ==\n%!";
  Printf.printf "%-14s %12s %12s %12s %10s\n" "family" "1 domain" "2 domains"
    "4 domains" "speedup";
  let row name seq par =
    let t1 =
      measure ~record:(Printf.sprintf "parallel/%s/domains=1" name) pager seq
    in
    let t2 =
      measure
        ~record:(Printf.sprintf "parallel/%s/domains=2" name)
        pager
        (fun () -> par 2)
    in
    let t4 =
      measure
        ~record:(Printf.sprintf "parallel/%s/domains=4" name)
        pager
        (fun () -> par 4)
    in
    Printf.printf "%-14s %12.4f %12.4f %12.4f %9.1fx\n%!" name t1 t2 t4
      (t1 /. Float.min t2 t4);
    (t1, t2, t4)
  in
  let complex = Access.Counter_scoring.Complex in
  let tj_terms = [ qa 10000; qb 10000 ] in
  ignore
    (row "termjoin"
       (fun () ->
         count_emitted (fun ~emit () ->
             Access.Term_join.run ~mode:complex ctx ~terms:tj_terms ~emit ()))
       (fun p ->
         List.length
           (Exec.Par.term_join ~mode:complex ~parallelism:p ctx ~terms:tj_terms)));
  let phrase = [ pool_term 121076; pool_term 44930 ] in
  ignore
    (row "phrase"
       (fun () ->
         count_emitted (fun ~emit () ->
             Access.Phrase_finder.run ctx ~phrase ~emit ()))
       (fun p -> List.length (Exec.Par.phrase ~parallelism:p ctx ~phrase)));
  let r_terms = [ pool_term 146477; pool_term 121076; qa 5500 ] in
  let t1, t2, t4 =
    row "ranked-k10"
      (fun () -> List.length (Access.Ranked.top_k_docs ctx ~terms:r_terms ~k:10))
      (fun p ->
        List.length (Exec.Par.top_k_docs ~parallelism:p ctx ~terms:r_terms ~k:10))
  in
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    let speedup = t1 /. Float.min t2 t4 in
    if speedup >= 1.5 then
      Printf.printf "ranked top-k parallel speedup: %.2fx (>= 1.5x required)\n%!"
        speedup
    else
      bench_failures :=
        Printf.sprintf
          "ranked top-k parallel speedup %.2fx < 1.5x on a host with %d \
           recommended domains"
          speedup cores
        :: !bench_failures
  end
  else
    Printf.printf
      "single-core host (%d recommended domain): speedup assertion skipped, \
       wall times recorded\n%!"
      cores

(* ------------------------------------------------------------------ *)
(* Pick: 200 to 55,000 input nodes (Sec. 6, in-text) *)

let synthetic_scored_tree n =
  (* a deterministic tree with pseudo-random scores and exactly [n]
     nodes; fanouts are dealt breadth-first so the shape stays
     shallow and wide like a document *)
  let state = Random.State.make [| n; 17 |] in
  let counts = Array.make n 0 in
  let remaining = ref (n - 1) and frontier = ref 0 in
  while !remaining > 0 do
    let fanout = min !remaining (2 + Random.State.int state 7) in
    counts.(!frontier) <- fanout;
    remaining := !remaining - fanout;
    incr frontier
  done;
  (* node i's children are the consecutive BFS ids starting at
     first_child.(i) *)
  let first_child = Array.make (n + 1) 1 in
  for i = 0 to n - 1 do
    first_child.(i + 1) <- first_child.(i) + counts.(i)
  done;
  let nodes = Array.make n (Core.Stree.make "n" []) in
  for i = n - 1 downto 0 do
    let children =
      List.init counts.(i) (fun k ->
          Core.Stree.Node nodes.(first_child.(i) + k))
    in
    nodes.(i) <-
      Core.Stree.make ~score:(Random.State.float state 2.) "n" children
  done;
  nodes.(0)

let pick_bench () =
  Printf.printf
    "\n== Pick: parent/child redundancy elimination, increasing input size \
     (seconds) ==\n%!";
  Printf.printf "%10s %12s %12s\n" "nodes" "Pick" "returned";
  let crit = Core.Op_pick.pick_foo ~threshold:1.0 () in
  List.iter
    (fun n ->
      let tree = synthetic_scored_tree n in
      let actual = Core.Stree.size tree in
      let returned = ref 0 in
      (* warmup, as in [measure] *)
      ignore
        (Access.Pick_stack.run crit
           ~candidates:(fun _ -> true)
           ~emit:ignore tree);
      let samples =
        List.init runs (fun _ ->
            returned := 0;
            let t0 = Unix.gettimeofday () in
            let _ =
              Access.Pick_stack.run crit
                ~candidates:(fun _ -> true)
                ~emit:(fun _ -> incr returned)
                tree
            in
            Unix.gettimeofday () -. t0)
      in
      Printf.printf "%10d %12.4f %12d\n%!" actual (median samples)
        !returned)
    [ 200; 500; 1000; 2000; 5000; 10000; 20000; 55000 ]

(* ------------------------------------------------------------------ *)
(* Ablations: sensitivity of the storage design choices. The paper's
   cost differences hinge on what each method reads through the
   buffer pool; these sweeps show how the pool and page sizes move
   the scan-bound (Comp2) and random-access-bound (plain TermJoin,
   complex scoring) methods. *)

let ablation () =
  let articles = min articles 800 in
  let build ~pool_pages ~page_size =
    let cfg = { (corpus_config ()) with Workload.Corpus.articles } in
    let options =
      { Store.Db.default_options with keep_trees = false; pool_pages; page_size }
    in
    Access.Ctx.of_db (Store.Db.load ~options (Workload.Corpus.generate cfg))
  in
  let measure_pair ctx =
    let pager = Store.Element_store.pager ctx.Access.Ctx.elements in
    let terms = [ qa 3000; qb 3000 ] in
    let comp2 =
      measure pager (fun () ->
          count_emitted (fun ~emit () ->
              Access.Composite.comp2 ~mode:Access.Counter_scoring.Complex ctx
                ~terms ~emit ()))
    in
    let tj =
      measure pager (fun () ->
          count_emitted (fun ~emit () ->
              Access.Term_join.run ~mode:Access.Counter_scoring.Complex ctx
                ~terms ~emit ()))
    in
    (comp2, tj)
  in
  Printf.printf
    "\n== Ablation: buffer-pool frames (%d articles; Comp2 vs plain TermJoin, \
     complex, freq 3000; seconds) ==\n%!"
    articles;
  Printf.printf "%12s %12s %12s\n" "pool pages" "Comp2" "TermJoin";
  List.iter
    (fun pool_pages ->
      let ctx = build ~pool_pages ~page_size:Store.Pager.default_page_size in
      let comp2, tj = measure_pair ctx in
      Printf.printf "%12d %12.4f %12.4f\n%!" pool_pages comp2 tj)
    [ 64; 512; 4096 ];
  Printf.printf
    "\n== Ablation: page size (%d articles; same workload; seconds) ==\n%!"
    articles;
  Printf.printf "%12s %12s %12s\n" "page bytes" "Comp2" "TermJoin";
  List.iter
    (fun page_size ->
      let ctx = build ~pool_pages:1024 ~page_size in
      let comp2, tj = measure_pair ctx in
      Printf.printf "%12d %12.4f %12.4f\n%!" page_size comp2 tj)
    [ 2048; 8192; 32768 ];
  (* holistic chain join vs a sequence of binary structural
     semi-joins, on //article//section//p *)
  let ctx = build ~pool_pages:1024 ~page_size:Store.Pager.default_page_size in
  let pager = Store.Element_store.pager ctx.Access.Ctx.elements in
  let chain =
    let open Core.Pattern in
    make
      (pnode ~pred:(Tag "article") 1
         [
           pnode ~axis:Descendant ~pred:(Tag "section") 2
             [ pnode ~axis:Descendant ~pred:(Tag "p") 3 [] ];
         ])
      []
  in
  Printf.printf
    "\n== Ablation: chain join strategy (//article//section//p, %d articles; \
     seconds) ==\n%!"
    articles;
  Printf.printf "%24s %12s\n" "strategy" "time";
  let t_binary =
    measure pager (fun () ->
        List.length (Access.Pattern_exec.matches ctx chain ~var:3))
  in
  Printf.printf "%24s %12.4f\n%!" "binary semi-joins" t_binary;
  let t_twig =
    measure pager (fun () ->
        List.length (Access.Twig_stack.matches ctx chain ~var:3))
  in
  Printf.printf "%24s %12.4f\n%!" "holistic TwigStack" t_twig;
  (* a branching twig: //article[//section-title][//p] *)
  let twig =
    let open Core.Pattern in
    make
      (pnode ~pred:(Tag "article") 1
         [
           pnode ~axis:Descendant ~pred:(Tag "section-title") 2 [];
           pnode ~axis:Descendant ~pred:(Tag "p") 3 [];
         ])
      []
  in
  Printf.printf
    "\n== Ablation: twig join strategy (//article[//section-title][//p]; \
     seconds) ==\n%!";
  Printf.printf "%24s %12s\n" "strategy" "time";
  let t_binary =
    measure pager (fun () ->
        List.length (Access.Pattern_exec.matches ctx twig ~var:1))
  in
  Printf.printf "%24s %12.4f\n%!" "binary semi-joins" t_binary;
  let t_twig =
    measure pager (fun () ->
        List.length (Access.Twig_stack.matches ctx twig ~var:1))
  in
  Printf.printf "%24s %12.4f\n%!" "holistic TwigStack" t_twig

(* ------------------------------------------------------------------ *)
(* Service: concurrent throughput of the tixd query pool. The same
   mixed batch of requests runs through 1, 2 and 4 worker domains
   with caches disabled (pure evaluation scaling over the pinned
   snapshot), then through 4 workers with the result cache on (the
   batch repeats 60 distinct requests, so steady state is mostly
   cache hits). *)

let service_batch_size =
  match Sys.getenv_opt "TIX_BENCH_SERVICE_BATCH" with
  | Some s -> int_of_string s
  | None -> 400

let service_requests n =
  List.init n (fun i ->
      let k = Some (5 + (i mod 10)) in
      let req =
        match i mod 6 with
        | 0 ->
          Service.Engine.Search
            {
              terms = [ qa 1000; qb 1000 ];
              method_ = Service.Engine.Termjoin;
              complex = false;
              anchor = None;
            }
        | 1 ->
          Service.Engine.Search
            {
              terms = [ qa 300; qb 300 ];
              method_ = Service.Engine.Termjoin;
              complex = true;
              anchor = None;
            }
        | 2 ->
          Service.Engine.Search
            {
              terms = [ qa 2000; qb 2000 ];
              method_ = Service.Engine.Genmeet;
              complex = false;
              anchor = None;
            }
        | 3 ->
          Service.Engine.Phrase
            {
              phrase = pool_term 121076 ^ " " ^ pool_term 44930;
              comp3 = false;
            }
        | 4 -> Service.Engine.Ranked { terms = [ qa 500; qb 500 ] }
        | _ ->
          Service.Engine.Search
            {
              terms = [ qa 100; qb 100 ];
              method_ = Service.Engine.Enhanced;
              complex = true;
              anchor = None;
            }
      in
      (req, k))

let service_bench db =
  let snapshot =
    match Service.Engine.of_db db with
    | Ok s -> s
    | Error e -> failwith ("service bench: " ^ e)
  in
  let requests = service_requests service_batch_size in
  let n = List.length requests in
  let batch ?(trace = false) scheduler =
    let t0 = Unix.gettimeofday () in
    let promises =
      List.map
        (fun (req, k) ->
          match Service.Scheduler.submit scheduler ?k ~trace req with
          | Ok p -> p
          | Error _ -> failwith "service bench: admission rejected")
        requests
    in
    List.iter
      (fun p -> ignore (Service.Scheduler.await p : (_, _) result))
      promises;
    Unix.gettimeofday () -. t0
  in
  Printf.printf
    "\n== Service: domain pool throughput (%d mixed requests per batch) ==\n%!"
    n;
  Printf.printf "%8s %6s %6s %10s %10s %10s %10s\n" "workers" "cache" "trace"
    "QPS" "p50(ms)" "p99(ms)" "hits";
  let config ~workers ~cached ?(traced = false) () =
    let scheduler =
      Service.Scheduler.create ~workers ~queue_depth:n
        ~plan_cache_capacity:(if cached then 256 else 0)
        ~result_cache_capacity:(if cached then 4096 else 0)
        snapshot
    in
    Fun.protect
      ~finally:(fun () -> Service.Scheduler.shutdown scheduler)
      (fun () ->
        (* one untimed batch warms code paths (and, when on, the cache) *)
        ignore (batch ~trace:traced scheduler : float);
        Service.Metrics.reset ();
        let name =
          Printf.sprintf "service/batch/workers=%d/cache=%s/trace=%s" workers
            (if cached then "on" else "off")
            (if traced then "on" else "off")
        in
        let samples =
          List.init runs (fun _ -> batch ~trace:traced scheduler)
        in
        bench_results := (name, samples) :: !bench_results;
        let qps = float_of_int n /. median samples in
        let q p =
          Service.Metrics.quantile_ns (Service.Metrics.histogram "query.total") p
          /. 1e6
        in
        let hits =
          (Service.Scheduler.stats scheduler).Service.Scheduler.result_cache
            .Service.Lru.hits
        in
        let ms v =
          (* every request served from cache leaves the latency
             histogram empty *)
          if Float.is_nan v then Printf.sprintf "%10s" "-"
          else Printf.sprintf "%10.3f" v
        in
        Printf.printf "%8d %6s %6s %10.0f %s %s %10d\n%!" workers
          (if cached then "on" else "off")
          (if traced then "on" else "off")
          qps
          (ms (q 0.5))
          (ms (q 0.99))
          hits)
  in
  config ~workers:1 ~cached:false ();
  config ~workers:2 ~cached:false ();
  config ~workers:4 ~cached:false ();
  config ~workers:4 ~cached:false ~traced:true ();
  config ~workers:4 ~cached:true ()

(* ------------------------------------------------------------------ *)
(* Live updates: WAL-durable mutation throughput, the query-time
   overhead of a pending delta against the plain snapshot, the cost of
   each checkpoint phase (begin, prepare, install) of folding the delta
   into a fresh image, and read and write latency while a checkpoint
   is in flight. *)

let updates_batch_size =
  match Sys.getenv_opt "TIX_BENCH_UPDATES_BATCH" with
  | Some s -> int_of_string s
  | None -> 200

let updates_bench db =
  let dir = Filename.temp_file "tix_bench_updates" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let live =
        match Store.Live.open_dir ~base:db ~dir () with
        | Ok o -> o.Store.Live.live
        | Error e -> failwith (Store.Live.error_to_string e)
      in
      let n = updates_batch_size in
      Printf.printf "\n== Live updates (%d WAL-durable inserts) ==\n%!" n;
      let doc i =
        Printf.sprintf
          "<article><title>bench %d</title><sec><p>%s %s planted bench \
           text</p></sec></article>"
          i (qa 1000) (qb 1000)
      in
      let t0 = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        match
          Store.Live.insert live
            ~name:(Printf.sprintf "bench%d.xml" i)
            ~xml:(doc i)
        with
        | Ok () -> ()
        | Error e -> failwith (Store.Live.error_to_string e)
      done;
      let ingest_s = Unix.gettimeofday () -. t0 in
      bench_results := ("updates/insert-batch", [ ingest_s ]) :: !bench_results;
      Printf.printf "%-28s %10.0f docs/s (%.1f ms total, fsync per doc)\n%!"
        "insert throughput"
        (float_of_int n /. ingest_s)
        (ingest_s *. 1000.);
      (* query overhead of the pending delta: the same ranked request
         against the plain snapshot and the base+delta view *)
      let snapshot =
        match Service.Engine.of_db db with
        | Ok s -> s
        | Error e -> failwith e
      in
      let delta_snapshot =
        Service.Engine.with_delta snapshot (Store.Live.delta live)
      in
      let request = Service.Engine.Ranked { terms = [ qa 1000; qb 1000 ] } in
      let time_queries snap =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to 20 do
          match Service.Engine.exec ~k:10 snap request with
          | Ok _ -> ()
          | Error e -> failwith (Service.Engine.error_message e)
        done;
        (Unix.gettimeofday () -. t0) /. 20. *. 1000.
      in
      let base_ms = time_queries snapshot in
      let delta_ms = time_queries delta_snapshot in
      bench_results :=
        ("updates/ranked-base", [ base_ms /. 1000. ])
        :: ("updates/ranked-delta", [ delta_ms /. 1000. ])
        :: !bench_results;
      Printf.printf "%-28s %10.3f ms (plain snapshot)\n%!" "ranked top-10"
        base_ms;
      Printf.printf "%-28s %10.3f ms (+%d-doc delta)\n%!" "ranked top-10"
        delta_ms n;
      (* the checkpoint's three phases, [runs] times: each round folds
         a fresh batch of [n] inserts into the image the previous round
         wrote; prepare's allocation is counted in minor words *)
      let fill tag =
        for i = 0 to n - 1 do
          match
            Store.Live.insert live
              ~name:(Printf.sprintf "%s%d.xml" tag i)
              ~xml:(doc i)
          with
          | Ok () -> ()
          | Error e -> failwith (Store.Live.error_to_string e)
        done
      in
      let ok = function
        | Ok v -> v
        | Error e -> failwith (Store.Live.error_to_string e)
      in
      let phases =
        List.init runs (fun r ->
            if r > 0 then fill (Printf.sprintf "round%d-" r);
            let t0 = Unix.gettimeofday () in
            let token = ok (Store.Live.checkpoint_begin live) in
            let t1 = Unix.gettimeofday () in
            let w0 = Gc.minor_words () in
            let merged, path = ok (Store.Live.checkpoint_prepare live token) in
            let words = Gc.minor_words () -. w0 in
            let t2 = Unix.gettimeofday () in
            Store.Live.checkpoint_install live merged path;
            let t3 = Unix.gettimeofday () in
            (t1 -. t0, t2 -. t1, t3 -. t2, words))
      in
      let column f = List.map f phases in
      let total = column (fun (b, p, i, _) -> b +. p +. i) in
      let phase name samples =
        bench_results := ("updates/checkpoint-" ^ name, samples) :: !bench_results;
        Printf.printf "%-28s %10.2f ms median, %.2f ms min (%d runs)\n%!"
          ("checkpoint " ^ name)
          (median samples *. 1000.)
          (minimum samples *. 1000.)
          runs
      in
      bench_results := ("updates/checkpoint", total) :: !bench_results;
      Printf.printf "%-28s %10.1f ms median (begin + prepare + install)\n%!"
        "checkpoint" (median total *. 1000.);
      phase "begin" (column (fun (b, _, _, _) -> b));
      phase "prepare" (column (fun (_, p, _, _) -> p));
      phase "install" (column (fun (_, _, i, _) -> i));
      let words = column (fun (_, _, _, w) -> w) in
      bench_counts :=
        ("updates/checkpoint-prepare-minor-words", "words", words) :: !bench_counts;
      Printf.printf "%-28s %10.2f Mw median, %.2f Mw min\n%!"
        "checkpoint prepare alloc" (median words /. 1e6) (minimum words /. 1e6);
      (* concurrent writers: the same ingest fanned across threads,
         once with per-op fsync (wal_batch = 1) and once with group
         commit, so the ratio isolates the shared-fsync win *)
      let writers =
        match Sys.getenv_opt "TIX_BENCH_UPDATES_WRITERS" with
        | Some s -> int_of_string s
        | None -> 8
      in
      let per_writer = max 1 (n / writers) in
      let concurrent_ingest ~wal_batch =
        let sub = Filename.concat dir (Printf.sprintf "gc%d" wal_batch) in
        Unix.mkdir sub 0o755;
        let lv =
          match Store.Live.open_dir ~wal_batch ~dir:sub () with
          | Ok o -> o.Store.Live.live
          | Error e -> failwith (Store.Live.error_to_string e)
        in
        let failures = Atomic.make 0 in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init writers (fun w ->
              Thread.create
                (fun () ->
                  for i = 0 to per_writer - 1 do
                    match
                      Store.Live.insert lv
                        ~name:(Printf.sprintf "gc%d-%d.xml" w i)
                        ~xml:(doc ((w * per_writer) + i))
                    with
                    | Ok () -> ()
                    | Error _ -> Atomic.incr failures
                  done)
                ())
        in
        List.iter Thread.join threads;
        let dt = Unix.gettimeofday () -. t0 in
        let stats = Store.Live.stats lv in
        Store.Live.close lv;
        if Atomic.get failures > 0 then
          failwith "concurrent ingest reported write failures";
        (float_of_int (writers * per_writer) /. dt, dt, stats)
      in
      let serial_rate, serial_s, _ = concurrent_ingest ~wal_batch:1 in
      let batched_rate, batched_s, gstats = concurrent_ingest ~wal_batch:64 in
      bench_results :=
        (Printf.sprintf "updates/ingest-%dw-fsync-per-op" writers, [ serial_s ])
        :: ( Printf.sprintf "updates/ingest-%dw-group-commit" writers,
             [ batched_s ] )
        :: !bench_results;
      Printf.printf "%-28s %10.0f docs/s (%d writers, fsync per op)\n%!"
        "concurrent ingest" serial_rate writers;
      Printf.printf
        "%-28s %10.0f docs/s (%d writers, group commit: %d batches, largest \
         %d)\n\
         %!"
        "concurrent ingest" batched_rate writers
        gstats.Store.Live.gc_batches gstats.Store.Live.gc_largest_batch;
      let ratio = batched_rate /. serial_rate in
      let cores = Domain.recommended_domain_count () in
      if cores >= 2 then
        if ratio >= 3. then
          Printf.printf
            "group-commit ingest speedup: %.2fx (>= 3x required)\n%!" ratio
        else
          bench_failures :=
            Printf.sprintf
              "group-commit ingest speedup %.2fx < 3x at %d writers on a \
               host with %d recommended domains"
              ratio writers cores
            :: !bench_failures
      else
        Printf.printf
          "single-core host (%d recommended domain): group-commit speedup \
           gate skipped at %.2fx, wall times recorded\n\
           %!"
          cores ratio;
      (* read latency while a checkpoint is in flight: refill the
         delta, run the merge on another thread, and sample ranked
         queries against a pinned base+delta view the whole time *)
      fill "ck";
      let base, delta = Store.Live.view live in
      let ck_snapshot =
        match Service.Engine.of_db base with
        | Ok s -> Service.Engine.with_delta s delta
        | Error e -> failwith e
      in
      let ck_done = Atomic.make false in
      let ck_err = ref None in
      let ck_thread =
        Thread.create
          (fun () ->
            (match Store.Live.checkpoint live with
            | Ok _ -> ()
            | Error e -> ck_err := Some (Store.Live.error_to_string e));
            Atomic.set ck_done true)
          ()
      in
      let lats = ref [] in
      let in_flight = ref 0 in
      let sample () =
        let t0 = Unix.gettimeofday () in
        (match Service.Engine.exec ~k:10 ck_snapshot request with
        | Ok _ -> ()
        | Error e -> failwith (Service.Engine.error_message e));
        lats := (Unix.gettimeofday () -. t0) :: !lats
      in
      while not (Atomic.get ck_done) do
        sample ();
        incr in_flight
      done;
      Thread.join ck_thread;
      (match !ck_err with Some e -> failwith e | None -> ());
      while List.length !lats < 20 do
        sample ()
      done;
      let sorted = Array.of_list !lats in
      Array.sort compare sorted;
      let p50 = percentile sorted 0.5 and p99 = percentile sorted 0.99 in
      bench_results :=
        ("updates/read-p50-during-ckpt", [ p50 ])
        :: ("updates/read-p99-during-ckpt", [ p99 ])
        :: !bench_results;
      Printf.printf
        "%-28s p50 %6.3f ms  p99 %6.3f ms (%d of %d samples with the \
         checkpoint in flight)\n\
         %!"
        "ranked during checkpoint" (p50 *. 1000.) (p99 *. 1000.) !in_flight
        (Array.length sorted);
      (* write latency while a checkpoint is in flight: refill the
         delta, run the checkpoint on another thread and time
         WAL-durable inserts on this one. An insert gives up the
         runtime lock for its fsync and must take it back from the
         merging thread, as a connection thread does; the reads above
         never give it up, so they cannot show that wait. *)
      fill "wck";
      let ck_done = Atomic.make false in
      let ck_err = ref None in
      let ck_thread =
        Thread.create
          (fun () ->
            (match Store.Live.checkpoint live with
            | Ok _ -> ()
            | Error e -> ck_err := Some (Store.Live.error_to_string e));
            Atomic.set ck_done true)
          ()
      in
      let wlats = ref [] in
      let i = ref 0 in
      while not (Atomic.get ck_done) do
        let t0 = Unix.gettimeofday () in
        (match
           Store.Live.insert live
             ~name:(Printf.sprintf "during%d.xml" !i)
             ~xml:(doc !i)
         with
        | Ok () -> ()
        | Error e -> failwith (Store.Live.error_to_string e));
        wlats := (Unix.gettimeofday () -. t0) :: !wlats;
        incr i
      done;
      Thread.join ck_thread;
      (match !ck_err with Some e -> failwith e | None -> ());
      let sorted = Array.of_list !wlats in
      Array.sort compare sorted;
      let p50 = percentile sorted 0.5 and p99 = percentile sorted 0.99 in
      let worst = if sorted = [||] then nan else sorted.(Array.length sorted - 1) in
      bench_results :=
        ("updates/insert-p50-during-ckpt", [ p50 ])
        :: ("updates/insert-p99-during-ckpt", [ p99 ])
        :: ("updates/insert-max-during-ckpt", [ worst ])
        :: !bench_results;
      Printf.printf
        "%-28s p50 %6.3f ms  p99 %6.3f ms  max %6.3f ms (%d inserts with \
         the checkpoint in flight)\n\
         %!"
        "insert during checkpoint" (p50 *. 1000.) (p99 *. 1000.) (worst *. 1000.)
        (Array.length sorted);
      Store.Live.close live)

(* ------------------------------------------------------------------ *)
(* Distributed scatter-gather: the coordinator over 1/2/4 in-process
   shard backends (real TCP servers on loopback, one worker domain
   each — the per-node resource a deployment scales by adding shards).
   Closed-loop client; per-request latencies feed p50/p99, the batch
   wall clock feeds QPS. Result caches are off so every request pays
   real execution; a shard count of 1 measures pure federation
   overhead against the service bench's single-node numbers. *)

let dist_batch_size =
  match Sys.getenv_opt "TIX_BENCH_DIST_BATCH" with
  | Some s -> int_of_string s
  | None -> 200

let dist_requests n =
  List.init n (fun i ->
      let k = Some (5 + (i mod 10)) in
      let req =
        match i mod 5 with
        | 0 ->
          Service.Engine.Search
            {
              terms = [ qa 1000; qb 1000 ];
              method_ = Service.Engine.Termjoin;
              complex = false;
              anchor = None;
            }
        | 1 ->
          Service.Engine.Search
            {
              terms = [ qa 300; qb 300 ];
              method_ = Service.Engine.Termjoin;
              complex = true;
              anchor = None;
            }
        | 2 ->
          Service.Engine.Phrase
            {
              phrase = pool_term 121076 ^ " " ^ pool_term 44930;
              comp3 = false;
            }
        | 3 -> Service.Engine.Ranked { terms = [ qa 500; qb 500 ] }
        | _ ->
          Service.Engine.Search
            {
              terms = [ qa 2000; qb 2000 ];
              method_ = Service.Engine.Genmeet;
              complex = false;
              anchor = None;
            }
      in
      Service.Protocol.Exec
        {
          req;
          k;
          limits = Core.Governor.limits ();
          trace = false;
          parallelism = None;
          theta = None;
        })

let dist_bench db =
  let docs = Store.Catalog.document_count (Store.Db.catalog db) in
  let requests = dist_requests dist_batch_size in
  let n = List.length requests in
  Printf.printf
    "\n== Distributed: coordinator scatter-gather (%d mixed requests per \
     batch) ==\n%!"
    n;
  Printf.printf "%8s %10s %10s %10s %10s\n" "shards" "QPS" "p50(ms)" "p99(ms)"
    "degraded";
  List.iter
    (fun shards ->
      let parts =
        List.mapi
          (fun i (lo, hi) ->
            let tombstones = Array.init docs (fun d -> d < lo || d >= hi) in
            let shard_db =
              Store.Db.compact ~base:db ~delta:None ~tombstones
            in
            let snapshot =
              match
                Service.Engine.of_db
                  ~source:(Printf.sprintf "bench-shard-%d" i)
                  shard_db
              with
              | Ok s -> s
              | Error e -> failwith ("dist bench: " ^ e)
            in
            let scheduler =
              Service.Scheduler.create ~workers:1 ~queue_depth:n
                ~result_cache_capacity:0 snapshot
            in
            let server = Service.Server.start scheduler in
            let shard =
              {
                Dist.Shard_map.lo;
                hi;
                image = Printf.sprintf "bench-shard-%d" i;
                replicas =
                  [
                    {
                      Dist.Shard_map.host = "127.0.0.1";
                      port = Service.Server.port server;
                    };
                  ];
              }
            in
            (shard, server, scheduler))
          (Dist.Shard_map.ranges ~docs ~shards)
      in
      let map =
        match Dist.Shard_map.make (List.map (fun (s, _, _) -> s) parts) with
        | Ok m -> m
        | Error e -> failwith ("dist bench: " ^ e)
      in
      let coordinator = Dist.Coordinator.create ~source:"bench" map in
      Fun.protect
        ~finally:(fun () ->
          Dist.Client.close (Dist.Coordinator.client coordinator);
          List.iter
            (fun (_, server, scheduler) ->
              Service.Server.stop server;
              Service.Scheduler.shutdown scheduler)
            parts)
        (fun () ->
          let latencies = Array.make n 0. in
          let batch () =
            let t0 = Unix.gettimeofday () in
            List.iteri
              (fun i req ->
                let r0 = Unix.gettimeofday () in
                ignore
                  (Dist.Coordinator.handle coordinator req : Service.Json.t);
                latencies.(i) <- Unix.gettimeofday () -. r0)
              requests;
            Unix.gettimeofday () -. t0
          in
          ignore (batch () : float);
          let samples = List.init runs (fun _ -> batch ()) in
          bench_results :=
            (Printf.sprintf "dist/batch/shards=%d" shards, samples)
            :: !bench_results;
          let qps = float_of_int n /. median samples in
          let sorted = Array.copy latencies in
          Array.sort compare sorted;
          let degraded = Dist.Coordinator.degraded_served coordinator in
          if degraded > 0 then
            bench_failures :=
              Printf.sprintf "dist bench: %d degraded responses at %d shards"
                degraded shards
              :: !bench_failures;
          Printf.printf "%8d %10.0f %10.3f %10.3f %10d\n%!" shards qps
            (percentile sorted 0.5 *. 1000.)
            (percentile sorted 0.99 *. 1000.)
            degraded))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment *)

let micro ctx =
  let open Bechamel in
  let terms = [ qa 1000; qb 1000 ] in
  let complex = Access.Counter_scoring.Complex in
  let quiet f () = count_emitted f in
  let pick_tree = synthetic_scored_tree 5000 in
  let crit = Core.Op_pick.pick_foo ~threshold:1.0 () in
  let tests =
    Test.make_grouped ~name:"tix"
      [
        Test.make ~name:"table1/termjoin-simple"
          (Staged.stage
             (quiet (fun ~emit () -> Access.Term_join.run ctx ~terms ~emit ())));
        Test.make ~name:"table2/termjoin-complex"
          (Staged.stage
             (quiet (fun ~emit () ->
                  Access.Term_join.run ~mode:complex ctx ~terms ~emit ())));
        Test.make ~name:"table2/enhanced-complex"
          (Staged.stage
             (quiet (fun ~emit () ->
                  Access.Term_join.run ~variant:Access.Term_join.Enhanced
                    ~mode:complex ctx ~terms ~emit ())));
        Test.make ~name:"table2/genmeet-complex"
          (Staged.stage
             (quiet (fun ~emit () ->
                  Access.Gen_meet.run ~mode:complex ctx ~terms ~emit ())));
        Test.make ~name:"table4/termjoin-4terms"
          (Staged.stage
             (quiet (fun ~emit () ->
                  Access.Term_join.run ~mode:complex ctx
                    ~terms:(List.init 4 t4_term) ~emit ())));
        Test.make ~name:"table5/phrasefinder"
          (Staged.stage
             (quiet (fun ~emit () ->
                  Access.Phrase_finder.run ctx
                    ~phrase:[ pool_term 121076; pool_term 44930 ]
                    ~emit ())));
        Test.make ~name:"pick/5000-nodes"
          (Staged.stage (fun () ->
               Access.Pick_stack.run crit
                 ~candidates:(fun _ -> true)
                 ~emit:ignore pick_tree));
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n== Bechamel micro-benchmarks (ns per run) ==\n%!";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> (name, est) :: acc
        | Some _ | None -> (name, nan) :: acc)
      results []
  in
  List.iter
    (fun (name, est) -> Printf.printf "%-36s %14.0f\n" name est)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if which = "pick" then pick_bench ()
  else begin
    let db = build_db () in
    let ctx = Access.Ctx.of_db db in
    let run name f = if which = "all" || which = name then f () in
    run "table1" (fun () -> table1 ctx);
    run "table2" (fun () -> table2 ctx);
    run "table3" (fun () -> table3 ctx);
    run "table4" (fun () -> table4 ctx);
    run "table5" (fun () -> table5 ctx);
    run "skips" (fun () -> skips ctx);
    run "decode" (fun () -> decode_bench ctx);
    run "planner" (fun () -> planner_bench db ctx);
    run "parallel" (fun () -> parallel_bench ctx);
    if which = "all" then pick_bench ();
    run "ablation" (fun () -> ablation ());
    run "micro" (fun () -> micro ctx);
    (* last: pinning the pager switches it to lock-free reads, which
       would skew the buffer-pool-sensitive experiments above *)
    run "service" (fun () -> service_bench db);
    run "updates" (fun () -> updates_bench db);
    run "dist" (fun () -> dist_bench db)
  end;
  write_results_json ();
  match !bench_failures with
  | [] -> ()
  | failures ->
    List.iter (fun f -> Printf.eprintf "FAIL: %s\n%!" f) failures;
    exit 1
