(* Tests for the access methods: TermJoin (plain and enhanced),
   Generalized Meet, the composite baselines, PhraseFinder, the
   structural join, Top-K and the stack-based Pick. The central
   property: every optimized method agrees with the naive oracle —
   and with each other — on both the paper's example database and
   randomly generated corpora. *)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let paper_ctx =
  lazy (Access.Ctx.of_db (Store.Db.of_documents Workload.Paper_db.documents))

(* a small synthetic corpus with planted terms *)
let synth_ctx =
  lazy
    (let cfg =
       {
         Workload.Corpus.default with
         articles = 12;
         seed = 7;
         planted_terms = [ ("alphaterm", 40); ("betaterm", 25) ];
         planted_phrases = [ ("gammaone", "gammatwo", 15) ];
       }
     in
     let options = { Store.Db.default_options with keep_trees = false } in
     Access.Ctx.of_db (Store.Db.load ~options (Workload.Corpus.generate cfg)))

let key_score_list nodes =
  List.map
    (fun (n : Access.Scored_node.t) -> ((n.doc, n.start), n.score))
    (List.sort Access.Scored_node.compare_pos nodes)

let same_results name expected actual =
  let e = key_score_list expected and a = key_score_list actual in
  check int_ (name ^ ": node count") (List.length e) (List.length a);
  List.iter2
    (fun ((kd, ks), es) ((ad, astart), as_) ->
      check (Alcotest.pair int_ int_) (name ^ ": node") (kd, ks) (ad, astart);
      check (Alcotest.float 1e-6) (name ^ ": score") es as_)
    e a

(* ------------------------------------------------------------------ *)
(* TermJoin on the paper database: Fig. 5 / Fig. 6 scores *)

let test_term_join_paper_counts () =
  let ctx = Lazy.force paper_ctx in
  (* weighted ScoreFoo-style query: "search" 0.8, "internet" 0.6.
     Phrases need PhraseFinder; single terms suffice here. *)
  let results =
    Access.Term_join.to_list ctx ~terms:[ "search"; "internet" ]
      ~weights:[| 0.8; 0.6 |]
  in
  (* the article root contains 5 "search" and 1 "internet" *)
  let root =
    List.find
      (fun (n : Access.Scored_node.t) -> n.doc = 0 && n.start = 0)
      results
  in
  check (Alcotest.float 1e-6) "article score" ((5. *. 0.8) +. (1. *. 0.6))
    root.Access.Scored_node.score;
  (* every ancestor of an occurrence is emitted exactly once *)
  let keys = List.map (fun (n : Access.Scored_node.t) -> (n.doc, n.start)) results in
  check int_ "no duplicates" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_term_join_missing_term () =
  let ctx = Lazy.force paper_ctx in
  let results = Access.Term_join.to_list ctx ~terms:[ "nonexistentterm" ] in
  check int_ "no results" 0 (List.length results)

let test_term_join_matches_naive_paper () =
  let ctx = Lazy.force paper_ctx in
  let terms = [ "search"; "retrieval" ] in
  same_results "tj vs naive"
    (Naive.scored ctx ~terms)
    (Access.Term_join.to_list ctx ~terms)

let test_all_methods_agree_simple () =
  let ctx = Lazy.force synth_ctx in
  let terms = [ "alphaterm"; "betaterm" ] in
  let naive = Naive.scored ctx ~terms in
  check bool_ "naive non-empty" true (naive <> []);
  same_results "termjoin" naive (Access.Term_join.to_list ctx ~terms);
  same_results "genmeet" naive (Access.Gen_meet.to_list ctx ~terms);
  same_results "comp1" naive (Access.Composite.comp1_list ctx ~terms);
  same_results "comp2" naive (Access.Composite.comp2_list ctx ~terms)

let test_all_methods_agree_complex () =
  let ctx = Lazy.force synth_ctx in
  let terms = [ "alphaterm"; "betaterm" ] in
  let mode = Access.Counter_scoring.Complex in
  let naive = Naive.scored ~mode ctx ~terms in
  check bool_ "naive non-empty" true (naive <> []);
  same_results "termjoin plain" naive (Access.Term_join.to_list ~mode ctx ~terms);
  same_results "termjoin enhanced" naive
    (Access.Term_join.to_list ~variant:Access.Term_join.Enhanced ~mode ctx ~terms);
  same_results "genmeet" naive (Access.Gen_meet.to_list ~mode ctx ~terms);
  same_results "comp1" naive (Access.Composite.comp1_list ~mode ctx ~terms);
  same_results "comp2" naive (Access.Composite.comp2_list ~mode ctx ~terms)

let test_methods_agree_weighted () =
  let ctx = Lazy.force synth_ctx in
  let terms = [ "alphaterm"; "gammaone"; "gammatwo" ] in
  let weights = [| 0.8; 0.6; 0.4 |] in
  let naive = Naive.scored ~weights ctx ~terms in
  same_results "termjoin" naive (Access.Term_join.to_list ~weights ctx ~terms);
  same_results "genmeet" naive (Access.Gen_meet.to_list ~weights ctx ~terms);
  same_results "comp1" naive (Access.Composite.comp1_list ~weights ctx ~terms);
  same_results "comp2" naive (Access.Composite.comp2_list ~weights ctx ~terms)

(* random-corpus property: all methods equal the oracle *)
let corpus_gen =
  QCheck.Gen.(
    map2
      (fun seed articles -> (seed, 2 + articles))
      (int_bound 1000) (int_bound 4))

let test_methods_property =
  QCheck.Test.make ~name:"all methods = naive (random corpora)" ~count:15
    (QCheck.make corpus_gen) (fun (seed, articles) ->
      let cfg =
        {
          Workload.Corpus.default with
          articles;
          seed;
          chapters_per_article = 2;
          sections_per_chapter = 2;
          paragraphs_per_section = 2;
          words_per_paragraph = 12;
          vocabulary = 60;
          planted_terms = [ ("xterm", 9); ("yterm", 6) ];
        }
      in
      let options = { Store.Db.default_options with keep_trees = false } in
      let ctx = Access.Ctx.of_db (Store.Db.load ~options (Workload.Corpus.generate cfg)) in
      let terms = [ "xterm"; "yterm" ] in
      let eq mode =
        let naive = key_score_list (Naive.scored ~mode ctx ~terms) in
        let close (k1, s1) (k2, s2) = k1 = k2 && abs_float (s1 -. s2) < 1e-6 in
        let all_eq l = List.length l = List.length naive && List.for_all2 close naive l in
        all_eq (key_score_list (Access.Term_join.to_list ~mode ctx ~terms))
        && all_eq (key_score_list (Access.Gen_meet.to_list ~mode ctx ~terms))
        && all_eq (key_score_list (Access.Composite.comp1_list ~mode ctx ~terms))
        && all_eq (key_score_list (Access.Composite.comp2_list ~mode ctx ~terms))
      in
      eq Access.Counter_scoring.Simple && eq Access.Counter_scoring.Complex)

(* ------------------------------------------------------------------ *)
(* PhraseFinder vs Comp3 vs naive *)

let phrase_counts_of nodes =
  List.map
    (fun (n : Access.Scored_node.t) ->
      ((n.doc, n.start), int_of_float n.score))
    (List.sort Access.Scored_node.compare_pos nodes)

let test_phrase_finder_paper () =
  let ctx = Lazy.force paper_ctx in
  let hits = Access.Phrase_finder.to_list ctx ~phrase:[ "information"; "retrieval" ] in
  (* occurrences in #a15 (section-title), #a19, #a20 *)
  check int_ "three owning elements" 3 (List.length hits);
  check int_ "total occurrences" 3
    (Access.Phrase_finder.total_occurrences ctx
       ~phrase:[ "information"; "retrieval" ])

let test_phrase_finder_vs_naive () =
  let ctx = Lazy.force synth_ctx in
  let phrase = [ "gammaone"; "gammatwo" ] in
  let naive = Naive.phrase_counts ctx ~phrase in
  let pf = phrase_counts_of (Access.Phrase_finder.to_list ctx ~phrase) in
  check bool_ "non-empty" true (naive <> []);
  check bool_ "phrase finder = naive" true (naive = pf)

let test_comp3_vs_phrase_finder () =
  let ctx = Lazy.force synth_ctx in
  let phrase = [ "gammaone"; "gammatwo" ] in
  let pf = phrase_counts_of (Access.Phrase_finder.to_list ctx ~phrase) in
  let c3 = phrase_counts_of (Access.Composite.comp3_list ctx ~phrase) in
  check bool_ "comp3 = phrase finder" true (pf = c3)

let test_phrase_no_match () =
  let ctx = Lazy.force synth_ctx in
  (* both terms exist but never adjacently in reverse order:
     "gammatwo gammaone" may occur rarely by chance in plantings of
     singles; use terms that never co-occur adjacently *)
  let hits = Access.Phrase_finder.to_list ctx ~phrase:[ "alphaterm"; "nonexistentterm" ] in
  check int_ "no hits" 0 (List.length hits)

let test_phrase_three_terms () =
  (* a hand-built doc with a three-word phrase *)
  let doc =
    Xmlkit.Tree.elem "d"
      [
        Xmlkit.Tree.el "p" [ Xmlkit.Tree.text "one two three and one two three" ];
        Xmlkit.Tree.el "p" [ Xmlkit.Tree.text "one two one three two three" ];
      ]
  in
  let ctx = Access.Ctx.of_db (Store.Db.of_documents [ ("d.xml", doc) ]) in
  let phrase = [ "one"; "two"; "three" ] in
  let naive = Naive.phrase_counts ctx ~phrase in
  let pf = phrase_counts_of (Access.Phrase_finder.to_list ctx ~phrase) in
  let c3 = phrase_counts_of (Access.Composite.comp3_list ctx ~phrase) in
  check bool_ "pf = naive" true (naive = pf);
  check bool_ "comp3 = naive" true (naive = c3);
  check int_ "one owning element" 1 (List.length pf);
  check int_ "two occurrences" 2 (snd (List.hd pf))

let test_phrase_property =
  QCheck.Test.make ~name:"phrase finder = comp3 = naive (random)" ~count:15
    (QCheck.make corpus_gen) (fun (seed, articles) ->
      let cfg =
        {
          Workload.Corpus.default with
          articles;
          seed;
          chapters_per_article = 2;
          sections_per_chapter = 2;
          paragraphs_per_section = 2;
          words_per_paragraph = 10;
          vocabulary = 40;
          planted_phrases = [ ("pone", "ptwo", 7) ];
        }
      in
      let options = { Store.Db.default_options with keep_trees = false } in
      let ctx = Access.Ctx.of_db (Store.Db.load ~options (Workload.Corpus.generate cfg)) in
      let phrase = [ "pone"; "ptwo" ] in
      let naive = Naive.phrase_counts ctx ~phrase in
      let pf = phrase_counts_of (Access.Phrase_finder.to_list ctx ~phrase) in
      let c3 = phrase_counts_of (Access.Composite.comp3_list ctx ~phrase) in
      naive = pf && naive = c3)

(* ------------------------------------------------------------------ *)
(* Structural join *)

let item ~doc ~start ~end_ ~level =
  { Access.Structural_join.doc; start; end_; level }

let test_structural_join_basic () =
  let ancestors =
    [| item ~doc:0 ~start:0 ~end_:10 ~level:0; item ~doc:0 ~start:1 ~end_:5 ~level:1 |]
  in
  let descendants =
    [| item ~doc:0 ~start:2 ~end_:3 ~level:2; item ~doc:0 ~start:7 ~end_:8 ~level:1 |]
  in
  let pairs = Access.Structural_join.pairs ~ancestors ~descendants () in
  (* (0,2): under both; (7,8): under root only *)
  check int_ "three pairs" 3 (List.length pairs)

let test_structural_join_parent_child () =
  let ancestors =
    [| item ~doc:0 ~start:0 ~end_:10 ~level:0; item ~doc:0 ~start:1 ~end_:5 ~level:1 |]
  in
  let descendants = [| item ~doc:0 ~start:2 ~end_:3 ~level:2 |] in
  let pairs =
    Access.Structural_join.pairs ~axis:`Parent_child ~ancestors ~descendants ()
  in
  check int_ "only direct parent" 1 (List.length pairs);
  let a, _ = List.hd pairs in
  check int_ "parent is inner" 1 a.Access.Structural_join.start

let test_structural_join_cross_doc () =
  let ancestors = [| item ~doc:0 ~start:0 ~end_:10 ~level:0 |] in
  let descendants = [| item ~doc:1 ~start:2 ~end_:3 ~level:1 |] in
  check int_ "no cross-doc pairs" 0
    (List.length (Access.Structural_join.pairs ~ancestors ~descendants ()))

let test_structural_join_against_naive () =
  let ctx = Lazy.force synth_ctx in
  (* ancestors: all "section" elements; descendants: all "p" *)
  let collect tag =
    let acc = ref [] in
    Store.Element_store.scan ctx.Access.Ctx.elements (fun r ->
        match Store.Catalog.tag_id ctx.Access.Ctx.catalog tag with
        | Some id when r.Store.Element_rec.tag = id ->
          acc :=
            item ~doc:r.Store.Element_rec.doc ~start:r.Store.Element_rec.start
              ~end_:r.Store.Element_rec.end_ ~level:r.Store.Element_rec.level
            :: !acc
        | Some _ | None -> ());
    Array.of_list (List.rev !acc)
  in
  let sections = collect "section" and ps = collect "p" in
  let joined = Access.Structural_join.pairs ~ancestors:sections ~descendants:ps () in
  let naive =
    Array.fold_left
      (fun acc (s : Access.Structural_join.item) ->
        acc
        + Array.length
            (Array.of_seq
               (Seq.filter
                  (fun (p : Access.Structural_join.item) ->
                    p.doc = s.doc && s.start < p.start && p.end_ <= s.end_)
                  (Array.to_seq ps))))
      0 sections
  in
  check int_ "pair count matches naive" naive (List.length joined)

(* ------------------------------------------------------------------ *)
(* Skip-aware paths: every seek-based implementation must return
   exactly what its sequential counterpart returns *)

let tag_regions ctx tag =
  match Store.Catalog.tag_id ctx.Access.Ctx.catalog tag with
  | None -> [||]
  | Some id ->
    Store.Tag_index.nodes ctx.Access.Ctx.tags ~tag:id
    |> Array.map (fun (i : Store.Tag_index.item) ->
           item ~doc:i.doc ~start:i.start ~end_:i.end_ ~level:i.level)
    |> Access.Structural_join.outermost

let test_phrase_skips_equivalent () =
  let ctx = Lazy.force synth_ctx in
  List.iter
    (fun phrase ->
      same_results "phrase skips on = off"
        (Access.Phrase_finder.to_list ~use_skips:false ctx ~phrase)
        (Access.Phrase_finder.to_list ctx ~phrase);
      check bool_ "comp3 skips on = off" true
        (phrase_counts_of (Access.Composite.comp3_list ~use_skips:false ctx ~phrase)
        = phrase_counts_of (Access.Composite.comp3_list ctx ~phrase)))
    [
      [ "gammaone"; "gammatwo" ];
      [ "gammatwo"; "gammaone" ];
      [ "alphaterm"; "betaterm" ];
      [ "gammaone" ];
      [ "alphaterm"; "alphaterm" ];
      [ "alphaterm"; "nonexistentterm" ];
    ]

let test_within_vs_filter () =
  let ctx = Lazy.force synth_ctx in
  let common =
    match Ir.Inverted_index.terms_by_freq ctx.Access.Ctx.index with
    | (t, _) :: _ -> t
    | [] -> Alcotest.fail "empty index"
  in
  List.iter
    (fun (tag, term) ->
      let within = tag_regions ctx tag in
      check bool_ (tag ^ ": has regions") true (Array.length within > 0);
      let postings =
        match Ir.Inverted_index.lookup ctx.Access.Ctx.index term with
        | Some p -> p
        | None -> Alcotest.fail ("missing term " ^ term)
      in
      let naive =
        List.filter
          (fun (o : Ir.Postings.occ) ->
            Array.exists
              (fun (r : Access.Structural_join.item) ->
                r.doc = o.doc && r.start < o.pos && o.pos < r.end_)
              within)
          (Ir.Postings.to_list postings)
      in
      let run use_skips =
        let acc = ref [] in
        let n =
          Access.Structural_join.occurrences_within ~use_skips
            (Ir.Postings.cursor postings) ~within
            ~emit:(fun _ o -> acc := o :: !acc)
            ()
        in
        check int_ (tag ^ ": return = emitted") n (List.length !acc);
        List.rev !acc
      in
      check bool_ (tag ^ ": skips on = filter") true (run true = naive);
      check bool_ (tag ^ ": skips off = filter") true (run false = naive))
    [
      ("p", "alphaterm");
      ("section", "betaterm");
      ("article", common);
      ("section-title", common);
      ("section-title", "alphaterm") (* plants never land in titles *);
    ];
  (* no regions at all: nothing is emitted and nothing is consumed *)
  let postings =
    match Ir.Inverted_index.lookup ctx.Access.Ctx.index common with
    | Some p -> p
    | None -> Alcotest.fail "missing common term"
  in
  check int_ "empty region set" 0
    (Access.Structural_join.occurrences_within
       (Ir.Postings.cursor postings) ~within:[||]
       ~emit:(fun _ _ -> Alcotest.fail "unexpected emit")
       ())

let test_gen_meet_within () =
  let ctx = Lazy.force synth_ctx in
  let terms = [ "alphaterm"; "betaterm" ] in
  (* the article roots cover every occurrence, so the scoped meet
     must reproduce the unscoped one *)
  same_results "within articles = unscoped"
    (Access.Gen_meet.to_list ctx ~terms)
    (Access.Gen_meet.to_list ~within:(tag_regions ctx "article") ctx ~terms);
  let sections = tag_regions ctx "section" in
  same_results "scoped skips on = off"
    (Access.Gen_meet.to_list ~within:sections ~use_skips:false ctx ~terms)
    (Access.Gen_meet.to_list ~within:sections ctx ~terms)

let naive_top_k_docs ctx ?weights ~terms ~k () =
  let weights =
    match weights with
    | Some w -> w
    | None -> Array.make (List.length terms) 1.0
  in
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i t ->
      match Ir.Inverted_index.lookup ctx.Access.Ctx.index t with
      | None -> ()
      | Some p ->
        Ir.Postings.iter
          (fun o ->
            let d = o.Ir.Postings.doc in
            let tfs =
              match Hashtbl.find_opt tbl d with
              | Some a -> a
              | None ->
                let a = Array.make (List.length terms) 0 in
                Hashtbl.add tbl d a;
                a
            in
            tfs.(i) <- tfs.(i) + 1)
          p)
    terms;
  Hashtbl.fold
    (fun d tfs acc ->
      let score = ref 0. in
      Array.iteri (fun i c -> score := !score +. (weights.(i) *. float_of_int c)) tfs;
      if !score > 0. then (d, !score) :: acc else acc)
    tbl []
  |> List.sort (fun (d1, s1) (d2, s2) ->
         match compare s2 s1 with 0 -> compare d1 d2 | c -> c)
  |> List.filteri (fun i _ -> i < k)

let test_top_k_docs_equivalence () =
  let ctx = Lazy.force synth_ctx in
  List.iter
    (fun terms ->
      List.iter
        (fun k ->
          let naive = naive_top_k_docs ctx ~terms ~k () in
          check bool_ "skips on = naive" true
            (Access.Ranked.top_k_docs ctx ~terms ~k = naive);
          check bool_ "skips off = naive" true
            (Access.Ranked.top_k_docs ~use_skips:false ctx ~terms ~k = naive))
        [ 1; 2; 5; 100 ])
    [
      [ "alphaterm" ];
      [ "alphaterm"; "betaterm" ];
      [ "alphaterm"; "betaterm"; "gammaone" ];
      [ "alphaterm"; "nonexistentterm" ];
      [ "nonexistentterm" ];
      [];
    ];
  (* weighted, with exactly-representable weights so scores stay
     bit-comparable *)
  let terms = [ "alphaterm"; "betaterm" ] and weights = [| 2.0; 0.5 |] in
  let naive = naive_top_k_docs ctx ~weights ~terms ~k:4 () in
  check bool_ "weighted on = naive" true
    (Access.Ranked.top_k_docs ~weights ctx ~terms ~k:4 = naive);
  check bool_ "weighted off = naive" true
    (Access.Ranked.top_k_docs ~use_skips:false ~weights ctx ~terms ~k:4 = naive)

let test_skips_property =
  QCheck.Test.make ~name:"skip paths = sequential paths (random)" ~count:10
    (QCheck.make corpus_gen) (fun (seed, articles) ->
      let cfg =
        {
          Workload.Corpus.articles;
          seed;
          chapters_per_article = 2;
          sections_per_chapter = 2;
          paragraphs_per_section = 3;
          words_per_paragraph = 12;
          vocabulary = 40;
          planted_terms = [ ("rone", 20); ("rtwo", 9) ];
          planted_phrases = [ ("pone", "ptwo", 7) ];
        }
      in
      let options = { Store.Db.default_options with keep_trees = false } in
      let ctx =
        Access.Ctx.of_db (Store.Db.load ~options (Workload.Corpus.generate cfg))
      in
      let phrase = [ "pone"; "ptwo" ] in
      let sections = tag_regions ctx "section" in
      let terms = [ "rone"; "rtwo"; "pone" ] in
      key_score_list (Access.Phrase_finder.to_list ctx ~phrase)
      = key_score_list (Access.Phrase_finder.to_list ~use_skips:false ctx ~phrase)
      && phrase_counts_of (Access.Composite.comp3_list ctx ~phrase)
         = phrase_counts_of (Access.Composite.comp3_list ~use_skips:false ctx ~phrase)
      && key_score_list (Access.Gen_meet.to_list ~within:sections ctx ~terms)
         = key_score_list
             (Access.Gen_meet.to_list ~within:sections ~use_skips:false ctx ~terms)
      && Access.Ranked.top_k_docs ctx ~terms ~k:3
         = Access.Ranked.top_k_docs ~use_skips:false ctx ~terms ~k:3)

(* ------------------------------------------------------------------ *)
(* Top-K *)

let test_top_k_basic () =
  let tk = Core.Top_k.create 3 in
  List.iteri
    (fun i s -> Core.Top_k.add tk ~score:s i)
    [ 1.0; 5.0; 3.0; 4.0; 2.0 ];
  let result = Core.Top_k.to_sorted_list tk in
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "top3 scores" [ 5.0; 4.0; 3.0 ] (List.map fst result);
  check (Alcotest.option (Alcotest.float 1e-9)) "cutoff" (Some 3.0)
    (Core.Top_k.cutoff tk)

let test_top_k_underfull () =
  let tk = Core.Top_k.create 10 in
  Core.Top_k.add tk ~score:1. "a";
  check int_ "count" 1 (Core.Top_k.count tk);
  check bool_ "no cutoff yet" true (Core.Top_k.cutoff tk = None)

let test_top_k_property =
  QCheck.Test.make ~name:"top-k = sort |> take k" ~count:300
    QCheck.(pair (int_range 1 20) (list_of_size (QCheck.Gen.int_range 0 50) (float_range 0. 100.)))
    (fun (k, scores) ->
      let tk = Core.Top_k.create k in
      List.iteri (fun i s -> Core.Top_k.add tk ~score:s i) scores;
      let got = List.map fst (Core.Top_k.to_sorted_list tk) in
      let expected =
        List.filteri (fun i _ -> i < k) (List.sort (fun a b -> compare b a) scores)
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Pick: stack algorithm vs reference *)

let leaf tag score = Core.Stree.make ~score tag []

let scored_tree =
  (* mirrors the shape of the paper's Fig. 6 projection result *)
  Core.Stree.make ~score:5.6 "article"
    [
      Core.Stree.Node (leaf "article-title" 0.6);
      Core.Stree.Node (Core.Stree.make "sname" [ Core.Stree.Content "Doe" ]);
      Core.Stree.Node
        (Core.Stree.make ~score:5.0 "chapter"
           [
             Core.Stree.Node
               (Core.Stree.make ~score:0.8 "section"
                  [ Core.Stree.Node (leaf "section-title" 0.8) ]);
             Core.Stree.Node
               (Core.Stree.make ~score:0.6 "section"
                  [ Core.Stree.Node (leaf "section-title" 0.6) ]);
             Core.Stree.Node
               (Core.Stree.make ~score:3.6 "section"
                  [
                    Core.Stree.Node (leaf "p" 0.8);
                    Core.Stree.Node (leaf "p" 1.4);
                    Core.Stree.Node (leaf "p" 1.4);
                  ]);
           ]);
    ]

let tags nodes = List.sort compare (List.map (fun (n : Core.Stree.t) -> n.tag) nodes)

let test_pick_reference_example () =
  let crit = Core.Op_pick.pick_foo () in
  let returned =
    Core.Op_pick.returned crit ~candidates:(fun _ -> true) scored_tree
  in
  (* chapter is returned (2/3 relevant children); its sections are
     suppressed; the relevant leaves below unreturned sections are
     returned *)
  let ts = tags returned in
  check (Alcotest.list Alcotest.string) "returned set"
    [ "chapter"; "p"; "p"; "p"; "section-title" ]
    ts

let test_pick_stack_matches_reference () =
  let crit = Core.Op_pick.pick_foo () in
  let reference =
    Core.Op_pick.returned crit ~candidates:(fun _ -> true) scored_tree
  in
  let stack =
    Access.Pick_stack.returned crit ~candidates:(fun _ -> true) scored_tree
  in
  check (Alcotest.list Alcotest.string) "same set" (tags reference) (tags stack)

(* random scored trees *)
let gen_scored_tree =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      let score =
        oneof [ return None; map Option.some (float_range 0. 2.) ]
      in
      if depth = 0 then
        map (fun s -> Core.Stree.make ?score:s "leaf" []) score
      else
        map2
          (fun s children ->
            Core.Stree.make ?score:s "node"
              (List.map (fun c -> Core.Stree.Node c) children))
          score
          (list_size (0 -- 3) (self (depth - 1))))
    4

let stree_ids nodes =
  List.sort compare
    (List.map
       (fun (n : Core.Stree.t) ->
         match n.id with
         | Core.Stree.Synthetic k -> k
         | Core.Stree.Stored { start; _ } -> start)
       nodes)

let test_pick_property =
  QCheck.Test.make ~name:"pick stack = reference (random trees)" ~count:300
    (QCheck.make gen_scored_tree) (fun tree ->
      let crit = Core.Op_pick.pick_foo ~threshold:1.0 () in
      let reference = Core.Op_pick.returned crit ~candidates:(fun _ -> true) tree in
      let stack = Access.Pick_stack.returned crit ~candidates:(fun _ -> true) tree in
      stree_ids reference = stree_ids stack)

let test_pick_property_candidates =
  QCheck.Test.make ~name:"pick stack = reference (partial candidates)"
    ~count:300 (QCheck.make gen_scored_tree) (fun tree ->
      let crit = Core.Op_pick.pick_foo ~threshold:0.5 ~fraction:0.3 () in
      let candidates (n : Core.Stree.t) = n.score <> None in
      let reference = Core.Op_pick.returned crit ~candidates tree in
      let stack = Access.Pick_stack.returned crit ~candidates tree in
      stree_ids reference = stree_ids stack)

let test_pick_sibling_filter () =
  (* horizontal redundancy: keep only the first returned sibling *)
  let first_only = function [] -> [] | x :: _ -> [ x ] in
  let crit =
    Core.Op_pick.criterion ~sibling_filter:first_only (fun n ->
        Core.Stree.score n >= 1.0)
  in
  let tree =
    Core.Stree.make "r"
      [
        Core.Stree.Node (leaf "a" 1.5);
        Core.Stree.Node (leaf "b" 1.5);
        Core.Stree.Node (leaf "c" 1.5);
      ]
  in
  let reference = Core.Op_pick.returned crit ~candidates:(fun _ -> true) tree in
  let stack = Access.Pick_stack.returned crit ~candidates:(fun _ -> true) tree in
  check (Alcotest.list Alcotest.string) "one sibling kept" [ "a" ] (tags reference);
  check (Alcotest.list Alcotest.string) "stack agrees" [ "a" ] (tags stack)


(* ------------------------------------------------------------------ *)
(* Score-modifying methods (Sec. 5.2) *)

let sn ~doc ~start ~end_ ~score =
  { Access.Scored_node.doc; start; end_; level = 0; tag = 0; score }

let test_set_union_basic () =
  let a = [ sn ~doc:0 ~start:1 ~end_:2 ~score:1.0; sn ~doc:0 ~start:5 ~end_:6 ~score:2.0 ] in
  let b = [ sn ~doc:0 ~start:5 ~end_:6 ~score:3.0; sn ~doc:1 ~start:0 ~end_:9 ~score:4.0 ] in
  let u = Access.Score_merge.set_union ~w1:1. ~w2:0.5 a b in
  check int_ "three nodes" 3 (List.length u);
  let scores = List.map (fun (n : Access.Scored_node.t) -> n.score) u in
  check (Alcotest.list (Alcotest.float 1e-9)) "combined scores"
    [ 1.0; 2.0 +. 1.5; 2.0 ] scores

let test_set_union_boost () =
  let a = [ sn ~doc:0 ~start:1 ~end_:2 ~score:1.0 ] in
  let b = [ sn ~doc:0 ~start:1 ~end_:2 ~score:1.0 ] in
  let u =
    Access.Score_merge.set_union ~combine:(Access.Score_merge.both_boost 2.) a b
  in
  check (Alcotest.float 1e-9) "boosted" 4.0
    (List.hd u).Access.Scored_node.score

let test_set_union_union_property =
  QCheck.Test.make ~name:"set_union = keys(a) U keys(b)" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 10) (int_bound 30))
        (list_of_size (QCheck.Gen.int_range 0 10) (int_bound 30)))
    (fun (ka, kb) ->
      let mk keys =
        List.map
          (fun k -> sn ~doc:0 ~start:k ~end_:(k + 1) ~score:1.)
          (List.sort_uniq compare keys)
      in
      let a = mk ka and b = mk kb in
      let u = Access.Score_merge.set_union a b in
      let keys l = List.map (fun (n : Access.Scored_node.t) -> n.start) l in
      keys u = List.sort_uniq compare (keys a @ keys b))

let test_value_join () =
  let a = [ sn ~doc:0 ~start:1 ~end_:2 ~score:1.0 ] in
  let b = [ sn ~doc:0 ~start:5 ~end_:6 ~score:2.0; sn ~doc:0 ~start:7 ~end_:8 ~score:0.5 ] in
  let joined =
    Access.Score_merge.value_join
      ~condition:(fun _ (r : Access.Scored_node.t) -> r.score > 1.)
      a b
  in
  check int_ "one pair" 1 (List.length joined);
  let _, _, s = List.hd joined in
  check (Alcotest.float 1e-9) "weighted sum" 3.0 s

let test_similarity_condition () =
  let ctx = Lazy.force paper_ctx in
  (* article-title #a2 and review-1 title share two terms *)
  let node ~doc ~start =
    match Store.Element_store.get ctx.Access.Ctx.elements ~doc ~start with
    | Some (r : Store.Element_rec.t) ->
      sn ~doc ~start ~end_:r.end_ ~score:0.
    | None -> Alcotest.fail "node not found"
  in
  (* find starts: article-title is the first child of the article *)
  let title = node ~doc:0 ~start:1 in
  let review_title = node ~doc:1 ~start:1 in
  check bool_ "similar" true
    (Access.Score_merge.similarity_condition ctx ~min_sim:2. title review_title);
  check bool_ "not that similar" false
    (Access.Score_merge.similarity_condition ctx ~min_sim:3. title review_title)

(* ------------------------------------------------------------------ *)
(* Store-level pattern execution *)

let query2_struct_pattern =
  let open Core.Pattern in
  make
    (pnode ~pred:(Tag "article") 1
       [
         pnode ~axis:Descendant ~pred:(Tag "author") 2
           [ pnode ~pred:(And (Tag "sname", Content_eq "Doe")) 3 [] ];
       ])
    []

let item_keys items =
  List.map
    (fun (i : Store.Tag_index.item) -> (i.doc, i.start))
    items

let test_pattern_exec_paper () =
  let ctx = Lazy.force paper_ctx in
  let articles = Access.Pattern_exec.matches ctx query2_struct_pattern ~var:1 in
  check
    (Alcotest.list (Alcotest.pair int_ int_))
    "one article" [ (0, 0) ] (item_keys articles);
  let snames = Access.Pattern_exec.matches ctx query2_struct_pattern ~var:3 in
  check int_ "one sname" 1 (List.length snames)

let test_pattern_exec_no_match () =
  let ctx = Lazy.force paper_ctx in
  let pat =
    Core.Pattern.make
      (Core.Pattern.pnode ~pred:(Core.Pattern.Tag "article") 1
         [
           Core.Pattern.pnode ~axis:Core.Pattern.Descendant
             ~pred:(Core.Pattern.Content_eq "Smith") 2 [];
         ])
      []
  in
  check int_ "no article by Smith" 0
    (List.length (Access.Pattern_exec.matches ctx pat ~var:1))

let test_pattern_exec_content_has () =
  let ctx = Lazy.force paper_ctx in
  let pat =
    Core.Pattern.make
      (Core.Pattern.pnode
         ~pred:
           (Core.Pattern.And
              (Core.Pattern.Tag "section", Core.Pattern.Content_has "search engine"))
         1 [])
      []
  in
  (* sections whose subtree mentions "search engine(s)": #a12 (title)
     and #a16 (paragraphs) *)
  check int_ "two sections" 2
    (List.length (Access.Pattern_exec.matches ctx pat ~var:1))

(* property: store-level execution agrees with the in-memory matcher *)
let test_pattern_exec_vs_matcher =
  QCheck.Test.make ~name:"pattern_exec = matcher (random corpora)" ~count:10
    (QCheck.make corpus_gen) (fun (seed, articles) ->
      let cfg =
        {
          Workload.Corpus.default with
          articles;
          seed;
          chapters_per_article = 2;
          sections_per_chapter = 2;
          paragraphs_per_section = 2;
          words_per_paragraph = 10;
          vocabulary = 50;
          planted_terms = [ ("zzmarker", 6) ];
        }
      in
      let db = Store.Db.load (Workload.Corpus.generate cfg) in
      let ctx = Access.Ctx.of_db db in
      let pat =
        Core.Pattern.make
          (Core.Pattern.pnode ~pred:(Core.Pattern.Tag "chapter") 1
             [
               Core.Pattern.pnode ~axis:Core.Pattern.Descendant
                 ~pred:
                   (Core.Pattern.And
                      (Core.Pattern.Tag "p", Core.Pattern.Content_has "zzmarker"))
                 2 [];
             ])
          []
      in
      let store_side var =
        item_keys (Access.Pattern_exec.matches ctx pat ~var)
      in
      let memory_side var =
        let rec docs i acc =
          if i >= articles then List.rev acc
          else begin
            match Store.Db.numbering db ~doc:i with
            | Some num -> docs (i + 1) ((i, Core.Stree.of_numbered num ~doc:i) :: acc)
            | None -> docs (i + 1) acc
          end
        in
        List.concat_map
          (fun (doc, tree) ->
            ignore doc;
            List.filter_map
              (fun (n : Core.Stree.t) ->
                match n.id with
                | Core.Stree.Stored { doc; start } -> Some (doc, start)
                | Core.Stree.Synthetic _ -> None)
              (Core.Matcher.matches_of_var pat var tree))
          (docs 0 [])
      in
      store_side 1 = memory_side 1 && store_side 2 = memory_side 2)

let test_scored_matches () =
  let ctx = Lazy.force paper_ctx in
  let full_pattern =
    let open Core.Pattern in
    make
      (pnode ~pred:(Tag "article") 1
         [
           pnode ~axis:Descendant ~pred:(Tag "author") 2
             [ pnode ~pred:(And (Tag "sname", Content_eq "Doe")) 3 [] ];
         ])
      []
  in
  let scored =
    Access.Pattern_exec.scored_matches ctx full_pattern ~struct_var:1
      ~terms:[ "search"; "internet" ]
  in
  (* all scored nodes are within the (single) matching article *)
  check bool_ "non-empty" true (scored <> []);
  check bool_ "all in doc 0" true
    (List.for_all (fun (n : Access.Scored_node.t) -> n.doc = 0) scored)

(* ------------------------------------------------------------------ *)
(* Tag index *)

let test_tag_index () =
  let ctx = Lazy.force paper_ctx in
  let tag name =
    match Store.Catalog.tag_id ctx.Access.Ctx.catalog name with
    | Some id -> id
    | None -> Alcotest.failf "unknown tag %s" name
  in
  check int_ "three chapters" 3
    (Store.Tag_index.count ctx.Access.Ctx.tags ~tag:(tag "chapter"));
  check int_ "seven paragraphs" 7
    (Store.Tag_index.count ctx.Access.Ctx.tags ~tag:(tag "p"));
  check int_ "all elements" 36
    (Array.length (Store.Tag_index.all ctx.Access.Ctx.tags));
  (* document order *)
  let items = Array.to_list (Store.Tag_index.all ctx.Access.Ctx.tags) in
  let keys = item_keys items in
  check bool_ "sorted" true (keys = List.sort compare keys)


(* ------------------------------------------------------------------ *)
(* Ranked access (Sec. 5.3) *)

let test_ranked_top_k () =
  let ctx = Lazy.force synth_ctx in
  let emitter ~emit () =
    Access.Term_join.run ctx ~terms:[ "alphaterm"; "betaterm" ] ~emit ()
  in
  let top5 = Access.Ranked.top_k 5 emitter in
  check int_ "five results" 5 (List.length top5);
  let all =
    List.sort Access.Scored_node.compare_score_desc
      (Access.Term_join.to_list ctx ~terms:[ "alphaterm"; "betaterm" ])
  in
  let expected = List.filteri (fun i _ -> i < 5) all in
  check bool_ "same as sort-take" true
    (List.map (fun (n : Access.Scored_node.t) -> n.score) top5
    = List.map (fun (n : Access.Scored_node.t) -> n.score) expected)

let test_ranked_above () =
  let ctx = Lazy.force synth_ctx in
  let emitter ~emit () =
    Access.Term_join.run ctx ~terms:[ "alphaterm" ] ~emit ()
  in
  let hits = Access.Ranked.above 2.0 emitter in
  check bool_ "all above" true
    (List.for_all (fun (n : Access.Scored_node.t) -> n.score > 2.0) hits);
  let all = Access.Term_join.to_list ctx ~terms:[ "alphaterm" ] in
  check int_ "count matches filter" 
    (List.length (List.filter (fun (n : Access.Scored_node.t) -> n.score > 2.0) all))
    (List.length hits)

let test_ranked_top_fraction () =
  let ctx = Lazy.force synth_ctx in
  let emitter ~emit () =
    Access.Term_join.run ctx ~terms:[ "alphaterm"; "betaterm" ] ~emit ()
  in
  let total = List.length (Access.Term_join.to_list ctx ~terms:[ "alphaterm"; "betaterm" ]) in
  let best = Access.Ranked.top_fraction ~q:0.9 emitter in
  check bool_ "roughly a decile" true
    (List.length best > 0 && List.length best < total / 2)


(* ------------------------------------------------------------------ *)
(* PathStack: path patterns through the stack join. PathStack is
   TwigStack on a pattern whose nodes have at most one child, so the
   chain cases run through Access.Twig_stack. *)

let chain_pattern preds =
  (* builds //p1//p2//... with fresh vars 1.. *)
  let rec build i = function
    | [] -> assert false
    | [ pred ] -> Core.Pattern.pnode ~axis:Core.Pattern.Descendant ~pred i []
    | pred :: rest ->
      Core.Pattern.pnode ~axis:Core.Pattern.Descendant ~pred i
        [ build (i + 1) rest ]
  in
  match preds with
  | [] -> assert false
  | first :: rest ->
    Core.Pattern.make
      (Core.Pattern.pnode ~pred:first 1 (match rest with
        | [] -> []
        | _ -> [ build 2 rest ]))
      []

let test_path_stack_supported () =
  let open Core.Pattern in
  check bool_ "chain ok" true
    (Access.Twig_stack.supported (chain_pattern [ Tag "a"; Tag "b" ]));
  check bool_ "long chain ok" true
    (Access.Twig_stack.supported
       (chain_pattern [ Tag "a"; Tag "b"; Tag "c"; True ]));
  let pc_chain =
    make (pnode ~pred:(Tag "a") 1 [ pnode ~axis:Child ~pred:(Tag "b") 2 [] ]) []
  in
  check bool_ "pc chain not supported" false
    (Access.Twig_stack.supported pc_chain);
  let deep_pc_chain =
    make
      (pnode ~pred:(Tag "a") 1
         [
           pnode ~axis:Descendant ~pred:(Tag "b") 2
             [ pnode ~axis:Child ~pred:(Tag "c") 3 [] ];
         ])
      []
  in
  check bool_ "pc edge below the root not supported" false
    (Access.Twig_stack.supported deep_pc_chain)

let test_path_stack_paper () =
  let ctx = Lazy.force paper_ctx in
  let open Core.Pattern in
  let pat = chain_pattern [ Tag "chapter"; Tag "section"; Tag "p" ] in
  List.iter
    (fun var ->
      let ps = item_keys (Access.Twig_stack.matches ctx pat ~var) in
      let pe = item_keys (Access.Pattern_exec.matches ctx pat ~var) in
      check
        (Alcotest.list (Alcotest.pair int_ int_))
        (Printf.sprintf "var %d" var) pe ps)
    [ 1; 2; 3 ];
  (* chapters containing section/p chains: only the third chapter *)
  check int_ "one chapter" 1
    (List.length (Access.Twig_stack.matches ctx pat ~var:1))

let test_path_stack_nested_same_tag () =
  (* self-nesting elements stress the per-node stacks *)
  let doc =
    Xmlkit.Parser.parse_string_exn
      "<a><a><b><a/><b>x</b></b></a><b/></a>"
  in
  let ctx = Access.Ctx.of_db (Store.Db.of_documents [ ("n.xml", doc) ]) in
  let open Core.Pattern in
  let pat = chain_pattern [ Tag "a"; Tag "a"; Tag "b" ] in
  List.iter
    (fun var ->
      let ps = item_keys (Access.Twig_stack.matches ctx pat ~var) in
      let pe = item_keys (Access.Pattern_exec.matches ctx pat ~var) in
      check
        (Alcotest.list (Alcotest.pair int_ int_))
        (Printf.sprintf "nested var %d" var) pe ps)
    [ 1; 2; 3 ]

let test_path_stack_property =
  QCheck.Test.make ~name:"path stack = pattern exec (random corpora)" ~count:12
    (QCheck.make corpus_gen) (fun (seed, articles) ->
      let cfg =
        {
          Workload.Corpus.default with
          articles;
          seed;
          chapters_per_article = 2;
          sections_per_chapter = 2;
          paragraphs_per_section = 2;
          words_per_paragraph = 8;
          vocabulary = 40;
          planted_terms = [ ("needle", 5) ];
        }
      in
      let options = { Store.Db.default_options with keep_trees = false } in
      let ctx =
        Access.Ctx.of_db (Store.Db.load ~options (Workload.Corpus.generate cfg))
      in
      let open Core.Pattern in
      let patterns =
        [
          chain_pattern [ Tag "article"; Tag "section"; Tag "p" ];
          chain_pattern [ Tag "chapter"; Tag "p" ];
          chain_pattern [ True; Tag "p" ];
          chain_pattern
            [ Tag "article"; And (Tag "p", Content_has "needle") ];
        ]
      in
      List.for_all
        (fun pat ->
          List.for_all
            (fun var ->
              item_keys (Access.Twig_stack.matches ctx pat ~var)
              = item_keys (Access.Pattern_exec.matches ctx pat ~var))
            (Core.Pattern.vars pat))
        patterns)


(* ------------------------------------------------------------------ *)
(* TwigStack holistic twig join *)

let twig preds_root children =
  Core.Pattern.make
    (Core.Pattern.pnode ~pred:preds_root 1
       (List.mapi
          (fun i pred ->
            Core.Pattern.pnode ~axis:Core.Pattern.Descendant ~pred (i + 2) [])
          children))
    []

let test_twig_stack_supported () =
  let open Core.Pattern in
  check bool_ "twig ok" true
    (Access.Twig_stack.supported (twig (Tag "a") [ Tag "b"; Tag "c" ]));
  let pc =
    make (pnode ~pred:(Tag "a") 1 [ pnode ~axis:Child ~pred:(Tag "b") 2 [] ]) []
  in
  check bool_ "pc unsupported" false (Access.Twig_stack.supported pc)

let test_twig_stack_paper () =
  let ctx = Lazy.force paper_ctx in
  let open Core.Pattern in
  (* articles having BOTH a "section" and a "ct" descendant; also the
     deeper twig article(author(sname), section-title) *)
  let patterns =
    [
      twig (Tag "article") [ Tag "section"; Tag "ct" ];
      twig (Tag "chapter") [ Tag "section-title"; Tag "p" ];
      Core.Pattern.make
        (pnode ~pred:(Tag "article") 1
           [
             pnode ~axis:Descendant ~pred:(Tag "author") 2
               [ pnode ~axis:Descendant ~pred:(Tag "sname") 3 [] ];
             pnode ~axis:Descendant ~pred:(Tag "section-title") 4 [];
           ])
        [];
    ]
  in
  List.iter
    (fun pat ->
      List.iter
        (fun var ->
          let ts = item_keys (Access.Twig_stack.matches ctx pat ~var) in
          let pe = item_keys (Access.Pattern_exec.matches ctx pat ~var) in
          check
            (Alcotest.list (Alcotest.pair int_ int_))
            (Printf.sprintf "var %d" var) pe ts)
        (Core.Pattern.vars pat))
    patterns

let test_twig_stack_property =
  QCheck.Test.make ~name:"twig stack = pattern exec (random corpora)" ~count:12
    (QCheck.make corpus_gen) (fun (seed, articles) ->
      let cfg =
        {
          Workload.Corpus.default with
          articles;
          seed;
          chapters_per_article = 2;
          sections_per_chapter = 2;
          paragraphs_per_section = 2;
          words_per_paragraph = 8;
          vocabulary = 40;
          planted_terms = [ ("needle", 5) ];
        }
      in
      let options = { Store.Db.default_options with keep_trees = false } in
      let ctx =
        Access.Ctx.of_db (Store.Db.load ~options (Workload.Corpus.generate cfg))
      in
      let open Core.Pattern in
      let patterns =
        [
          twig (Tag "article") [ Tag "section-title"; Tag "p" ];
          twig (Tag "chapter") [ Tag "p"; And (Tag "p", Content_has "needle") ];
          twig True [ Tag "section"; Tag "p" ];
          Core.Pattern.make
            (pnode ~pred:(Tag "article") 1
               [
                 pnode ~axis:Descendant ~pred:(Tag "chapter") 2
                   [
                     pnode ~axis:Descendant ~pred:(Tag "section") 3
                       [ pnode ~axis:Descendant ~pred:(Tag "p") 4 [] ];
                     pnode ~axis:Descendant ~pred:(Tag "section-title") 5 [];
                   ];
               ])
            [];
        ]
      in
      List.for_all
        (fun pat ->
          List.for_all
            (fun var ->
              item_keys (Access.Twig_stack.matches ctx pat ~var)
              = item_keys (Access.Pattern_exec.matches ctx pat ~var))
            (Core.Pattern.vars pat))
        patterns)


(* ------------------------------------------------------------------ *)
(* Snippets *)

let test_snippet_highlight () =
  let s =
    Access.Snippet.of_text ~width:6 ~terms:[ "engine" ]
      "a search engine indexes many engines quickly today"
  in
  check bool_ "highlights stem matches" true
    (let has sub =
       let rec find i =
         i + String.length sub <= String.length s
         && (String.sub s i (String.length sub) = sub || find (i + 1))
       in
       find 0
     in
     has "[engine]" && has "[engines]")

let test_snippet_window () =
  let text =
    String.concat " " (List.init 60 (fun i -> Printf.sprintf "w%d" i))
    ^ " needle tail"
  in
  let s = Access.Snippet.of_text ~width:5 ~terms:[ "needle" ] text in
  check bool_ "window centers on match" true
    (String.length s < 60
    &&
    let rec find i =
      i + 8 <= String.length s && (String.sub s i 8 = "[needle]" || find (i + 1))
    in
    find 0);
  check Alcotest.string "empty text" "" (Access.Snippet.of_text ~terms:[ "x" ] "")

let test_snippet_of_node () =
  let ctx = Lazy.force paper_ctx in
  let node =
    List.find
      (fun (n : Access.Scored_node.t) -> n.level = 0)
      (Access.Term_join.to_list ctx ~terms:[ "search" ])
  in
  let s = Access.Snippet.of_node ctx ~terms:[ "search" ] node in
  check bool_ "snippet produced" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* random-tree equivalence: store-level matchers vs the in-memory
   matcher on arbitrarily nested documents *)

let gen_nested_doc =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  fix
    (fun self depth ->
      if depth = 0 then
        map (fun t -> Xmlkit.Tree.elem t [ Xmlkit.Tree.text "x" ]) tag
      else
        map2
          (fun t children ->
            Xmlkit.Tree.elem t (List.map (fun e -> Xmlkit.Tree.Element e) children))
          tag
          (list_size (1 -- 3) (self (depth - 1))))
    4

let test_matchers_on_random_trees =
  QCheck.Test.make ~name:"store matchers = in-memory matcher (random trees)"
    ~count:60 (QCheck.make gen_nested_doc) (fun doc ->
      let root = Xmlkit.Tree.elem "r" [ Xmlkit.Tree.Element doc ] in
      let db = Store.Db.of_documents [ ("t.xml", root) ] in
      let ctx = Access.Ctx.of_db db in
      let tree =
        match Store.Db.numbering db ~doc:0 with
        | Some num -> Core.Stree.of_numbered num ~doc:0
        | None -> assert false
      in
      let open Core.Pattern in
      let patterns =
        [
          make (pnode ~pred:(Tag "a") 1
                  [ pnode ~axis:Descendant ~pred:(Tag "b") 2 [] ]) [];
          make (pnode ~pred:(Tag "a") 1
                  [ pnode ~axis:Descendant ~pred:(Tag "a") 2
                      [ pnode ~axis:Descendant ~pred:(Tag "c") 3 [] ] ]) [];
          make (pnode ~pred:(Tag "b") 1
                  [
                    pnode ~axis:Descendant ~pred:(Tag "a") 2 [];
                    pnode ~axis:Descendant ~pred:(Tag "c") 3 [];
                  ]) [];
        ]
      in
      let memory pat var =
        List.filter_map
          (fun (n : Core.Stree.t) ->
            match n.id with
            | Core.Stree.Stored { doc; start } -> Some (doc, start)
            | Core.Stree.Synthetic _ -> None)
          (Core.Matcher.matches_of_var pat var tree)
      in
      List.for_all
        (fun pat ->
          List.for_all
            (fun var ->
              let expected = memory pat var in
              let pe = item_keys (Access.Pattern_exec.matches ctx pat ~var) in
              let twig =
                if Access.Twig_stack.supported pat then
                  item_keys (Access.Twig_stack.matches ctx pat ~var)
                else pe
              in
              expected = pe && expected = twig)
            (Core.Pattern.vars pat))
        patterns)


(* ------------------------------------------------------------------ *)
(* error paths *)

let test_error_paths () =
  let ctx = Lazy.force paper_ctx in
  let open Core.Pattern in
  let bad_pred =
    make (pnode ~pred:(Or (Tag "a", Tag "b")) 1 []) []
  in
  (match Access.Pattern_exec.matches ctx bad_pred ~var:1 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let pc_pat =
    make (pnode ~pred:(Tag "a") 1 [ pnode ~axis:Child ~pred:(Tag "b") 2 [] ]) []
  in
  (match Access.Twig_stack.matches ctx pc_pat ~var:1 with
  | _ -> Alcotest.fail "expected Invalid_argument for pc twig"
  | exception Invalid_argument _ -> ());
  (match Core.Top_k.create 0 with
  | _ -> Alcotest.fail "expected Invalid_argument for k=0"
  | exception Invalid_argument _ -> ())


let test_term_join_cursor () =
  let ctx = Lazy.force synth_ctx in
  let terms = [ "alphaterm"; "betaterm" ] in
  (* pulling the cursor yields exactly what run emits, in order *)
  let via_run = ref [] in
  let _ =
    Access.Term_join.run ctx ~terms ~emit:(fun n -> via_run := n :: !via_run) ()
  in
  let c = Access.Term_join.cursor ctx ~terms in
  let rec pull acc =
    match Access.Term_join.next c with
    | Some n -> pull (n :: acc)
    | None -> acc
  in
  let via_cursor = pull [] in
  check bool_ "cursor = run" true (via_cursor = !via_run);
  (* and the cursor is exhausted for good *)
  check bool_ "stays exhausted" true (Access.Term_join.next c = None);
  (* early termination: taking just one result is legal *)
  let c2 = Access.Term_join.cursor ctx ~terms in
  check bool_ "first pull works" true (Access.Term_join.next c2 <> None)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "access"
    [
      ( "term_join",
        [
          tc "paper counts" `Quick test_term_join_paper_counts;
          tc "missing term" `Quick test_term_join_missing_term;
          tc "matches naive (paper)" `Quick test_term_join_matches_naive_paper;
          tc "cursor = run" `Quick test_term_join_cursor;
        ] );
      ( "method agreement",
        [
          tc "simple scoring" `Quick test_all_methods_agree_simple;
          tc "complex scoring" `Quick test_all_methods_agree_complex;
          tc "weighted" `Quick test_methods_agree_weighted;
          QCheck_alcotest.to_alcotest test_methods_property;
        ] );
      ( "phrase",
        [
          tc "paper phrase" `Quick test_phrase_finder_paper;
          tc "vs naive" `Quick test_phrase_finder_vs_naive;
          tc "comp3 agreement" `Quick test_comp3_vs_phrase_finder;
          tc "no match" `Quick test_phrase_no_match;
          tc "three terms" `Quick test_phrase_three_terms;
          QCheck_alcotest.to_alcotest test_phrase_property;
        ] );
      ( "structural join",
        [
          tc "basic" `Quick test_structural_join_basic;
          tc "parent-child" `Quick test_structural_join_parent_child;
          tc "cross-doc" `Quick test_structural_join_cross_doc;
          tc "vs naive" `Quick test_structural_join_against_naive;
        ] );
      ( "skip paths",
        [
          tc "phrase/comp3 on=off" `Quick test_phrase_skips_equivalent;
          tc "occurrences_within = filter" `Quick test_within_vs_filter;
          tc "scoped gen_meet" `Quick test_gen_meet_within;
          tc "top_k_docs = naive" `Quick test_top_k_docs_equivalence;
          QCheck_alcotest.to_alcotest test_skips_property;
        ] );
      ( "top_k",
        [
          tc "basic" `Quick test_top_k_basic;
          tc "underfull" `Quick test_top_k_underfull;
          QCheck_alcotest.to_alcotest test_top_k_property;
        ] );
      ( "pick",
        [
          tc "reference example" `Quick test_pick_reference_example;
          tc "stack matches reference" `Quick test_pick_stack_matches_reference;
          tc "sibling filter" `Quick test_pick_sibling_filter;
          QCheck_alcotest.to_alcotest test_pick_property;
          QCheck_alcotest.to_alcotest test_pick_property_candidates;
        ] );
      ( "score merge",
        [
          tc "set union" `Quick test_set_union_basic;
          tc "both boost" `Quick test_set_union_boost;
          tc "value join" `Quick test_value_join;
          tc "similarity condition" `Quick test_similarity_condition;
          QCheck_alcotest.to_alcotest test_set_union_union_property;
        ] );
      ( "pattern exec",
        [
          tc "paper query 2 structure" `Quick test_pattern_exec_paper;
          tc "no match" `Quick test_pattern_exec_no_match;
          tc "content_has" `Quick test_pattern_exec_content_has;
          tc "scored matches" `Quick test_scored_matches;
          QCheck_alcotest.to_alcotest test_pattern_exec_vs_matcher;
        ] );
      ("tag index", [ tc "counts and order" `Quick test_tag_index ]);
      ( "path stack",
        [
          tc "supported shapes" `Quick test_path_stack_supported;
          tc "paper chains" `Quick test_path_stack_paper;
          tc "nested same tag" `Quick test_path_stack_nested_same_tag;
          QCheck_alcotest.to_alcotest test_path_stack_property;
        ] );
      ( "twig stack",
        [
          tc "supported shapes" `Quick test_twig_stack_supported;
          tc "paper twigs" `Quick test_twig_stack_paper;
          QCheck_alcotest.to_alcotest test_twig_stack_property;
        ] );
      ("errors", [ tc "invalid inputs rejected" `Quick test_error_paths ]);
      ( "snippet",
        [
          tc "highlight" `Quick test_snippet_highlight;
          tc "window" `Quick test_snippet_window;
          tc "of node" `Quick test_snippet_of_node;
        ] );
      ( "random trees",
        [ QCheck_alcotest.to_alcotest test_matchers_on_random_trees ] );
      ( "ranked",
        [
          tc "top-k" `Quick test_ranked_top_k;
          tc "above" `Quick test_ranked_above;
          tc "top fraction" `Quick test_ranked_top_fraction;
        ] );
    ]
