(* Equivalence suite for the engine's node-result selector: every
   node-result family — search by each method (simple and complex
   scoring), anchored search, phrase, comp3 and compiled queries with
   and without [stop after] — executed through [Service.Engine.exec]
   must return exactly what the materializing oracle returns: the
   access methods' [*_list] entry points per segment, tombstoned base
   documents dropped, ids remapped into the merged dense space, rows
   sorted with [compare_row] and truncated. [rows], [total] and
   [steps_used] are compared, over random corpora, a plain snapshot
   and a delta overlay (inserts, updates, deletes), [k] of none, 0,
   1, 7 and more than the total, and parallelism 1 and 2. Single-term
   simple scoring over planted terms puts many equal scores at the
   cut. *)

let cfg seed articles =
  {
    Workload.Corpus.articles;
    seed;
    chapters_per_article = 2;
    sections_per_chapter = 2;
    paragraphs_per_section = 2;
    words_per_paragraph = 12;
    vocabulary = 60;
    planted_terms = [ ("xterm", 4 * articles); ("yterm", 3 * articles) ];
    planted_phrases = [ ("pa", "pb", 2 * articles) ];
  }

let load docs =
  Store.Db.load
    ~options:{ Store.Db.default_options with keep_trees = false }
    (List.to_seq docs)

let snapshot_exn db =
  match Service.Engine.of_db db with
  | Ok s -> s
  | Error msg -> failwith msg

(* a base of [articles] generated documents and, over it, a delta that
   deletes one base document, updates another and inserts two new
   ones (one of them under a name the query glob below excludes) *)
let snapshots seed articles =
  let base_docs = List.of_seq (Workload.Corpus.generate (cfg seed articles)) in
  let base = load base_docs in
  let fresh = List.of_seq (Workload.Corpus.generate (cfg (seed + 1) 3)) in
  let xml i = Xmlkit.Printer.to_string (snd (List.nth fresh i)) in
  let delta = Store.Delta.create ~base in
  let ok = function
    | Ok delta -> delta
    | Error e -> failwith (Store.Delta.mutation_error_to_string e)
  in
  let delta = ok (Store.Delta.delete delta ~name:"article-0.xml") in
  let delta = ok (Store.Delta.update delta ~name:"article-1.xml" ~xml:(xml 0)) in
  let delta = ok (Store.Delta.insert delta ~name:"article-new.xml" ~xml:(xml 1)) in
  let delta = ok (Store.Delta.insert delta ~name:"extra.xml" ~xml:(xml 2)) in
  let plain = snapshot_exn base in
  [ ("plain", plain); ("overlay", Service.Engine.with_delta plain delta) ]

(* ------------------------------------------------------------------ *)
(* The oracle *)

type segment = {
  db : Store.Db.t;
  ctx : Access.Ctx.t;
  keep : int -> bool;  (** not tombstoned *)
  remap : int -> int;  (** segment doc id -> merged dense id *)
}

let segments (snap : Service.Engine.snapshot) =
  match snap.Service.Engine.delta with
  | None ->
    [
      {
        db = snap.Service.Engine.db;
        ctx = snap.Service.Engine.ctx;
        keep = (fun _ -> true);
        remap = Fun.id;
      };
    ]
  | Some dv ->
    let base =
      {
        db = snap.Service.Engine.db;
        ctx = snap.Service.Engine.ctx;
        keep = (fun d -> not dv.Service.Engine.tombstones.(d));
        remap = (fun d -> dv.Service.Engine.dense.(d));
      }
    in
    base
    ::
    (match dv.Service.Engine.delta_db with
    | Some (db, ctx) ->
      [ { db; ctx; keep = (fun _ -> true); remap = (fun d -> dv.Service.Engine.n_live + d) } ]
    | None -> [])

let truncate k l =
  match k with
  | Some k when k >= 0 -> List.filteri (fun i _ -> i < k) l
  | Some _ | None -> l

(* [nodes seg] is one segment's materialized result; the steps the
   engine charges for it are its length *)
let oracle snap nodes =
  let rows, steps =
    List.fold_left
      (fun (rows, steps) seg ->
        let ns = nodes seg in
        let live =
          List.filter_map
            (fun (n : Access.Scored_node.t) ->
              if not (seg.keep n.doc) then None
              else
                Some
                  {
                    Service.Engine.tag =
                      Option.value ~default:"?"
                        (Store.Db.tag_of seg.db ~doc:n.doc ~start:n.start);
                    doc = seg.remap n.doc;
                    start = n.start;
                    score = n.score;
                  })
            ns
        in
        (rows @ live, steps + List.length ns))
      ([], 0) (segments snap)
  in
  (List.sort Service.Engine.compare_row rows, steps)

let expect ~what ~k (got : Service.Engine.result) (rows, total, steps) =
  let ok =
    got.Service.Engine.rows = truncate k rows
    && got.Service.Engine.total = total
    && got.Service.Engine.steps_used = steps
  in
  if not ok then
    QCheck.Test.fail_reportf "%s: rows %d/%d total %d/%d steps %d/%d" what
      (List.length got.Service.Engine.rows)
      (List.length (truncate k rows))
      got.Service.Engine.total total got.Service.Engine.steps_used steps;
  ok

(* ------------------------------------------------------------------ *)
(* Requests *)

let methods =
  Service.Engine.[ Termjoin; Enhanced; Genmeet; Comp1; Comp2; Auto ]

let mode complex =
  if complex then Access.Counter_scoring.Complex else Access.Counter_scoring.Simple

(* every method yields the same node set; the oracle reads it off the
   method's own list entry point (Auto: TermJoin) *)
let search_list method_ ~complex ~terms seg =
  let mode = mode complex in
  match method_ with
  | Service.Engine.Termjoin | Service.Engine.Auto ->
    Access.Term_join.to_list ~mode seg.ctx ~terms
  | Service.Engine.Enhanced ->
    Access.Term_join.to_list ~variant:Access.Term_join.Enhanced ~mode seg.ctx
      ~terms
  | Service.Engine.Genmeet -> Access.Gen_meet.to_list ~mode seg.ctx ~terms
  | Service.Engine.Comp1 -> Access.Composite.comp1_list ~mode seg.ctx ~terms
  | Service.Engine.Comp2 -> Access.Composite.comp2_list ~mode seg.ctx ~terms

let anchored_list tag ~complex ~terms seg =
  match Store.Catalog.tag_id seg.ctx.Access.Ctx.catalog tag with
  | None -> []
  | Some _ ->
    Access.Pattern_exec.scored_matches ~mode:(mode complex) seg.ctx
      (Core.Pattern.make (Core.Pattern.pnode ~pred:(Core.Pattern.Tag tag) 0 []) [])
      ~struct_var:0 ~terms

let query ?(glob = "*") ?(path = "//article/descendant-or-self::*") ?(pick = false)
    ?limit terms =
  Printf.sprintf
    {|for $a in document("%s")%s
      score $a using ScoreFoo($a, {%s}, {})
      %s
      return <r>{$a}</r>
      sortby(score)
      threshold $a/@score > 0%s|}
    glob path
    (String.concat ", " (List.map (Printf.sprintf "%S") terms))
    (if pick then "pick $a using PickFoo()" else "")
    (match limit with Some l -> Printf.sprintf " stop after %d" l | None -> "")

(* the compiled plan run per segment without its limit (the governor
   charges do not depend on it), merged, then cut at the limit *)
let query_oracle snap q =
  let plan =
    match Query.Parser.parse q with
    | Error _ -> failwith ("parse: " ^ q)
    | Ok ast -> (
      match Query.Compile.compile ast with
      | Ok p -> p
      | Error reason -> failwith ("compile: " ^ reason))
  in
  let steps = ref 0 in
  let rows, _ =
    oracle snap (fun seg ->
        let governor = Core.Governor.start Core.Governor.unlimited in
        let nodes =
          Query.Compile.execute ~governor seg.db
            { plan with Query.Compile.limit = None }
        in
        steps := !steps + Core.Governor.steps governor;
        nodes)
  in
  let limit = plan.Query.Compile.limit in
  (truncate limit rows, List.length (truncate limit rows), !steps)

let ks = [ None; Some 0; Some 1; Some 7; Some 100_000 ]

let check_snapshot (what, snap) =
  let run ~k ~parallelism request =
    match Service.Engine.exec ?k ~parallelism snap request with
    | Ok r -> r
    | Error e ->
      QCheck.Test.fail_reportf "%s: %s" what (Service.Engine.error_message e)
  in
  let all ~label request (rows, steps) =
    List.for_all
      (fun parallelism ->
        List.for_all
          (fun k ->
            expect
              ~what:(Printf.sprintf "%s/%s k=%s par=%d" what label
                       (match k with Some k -> string_of_int k | None -> "none")
                       parallelism)
              ~k (run ~k ~parallelism request)
              (rows, List.length rows, steps))
          ks)
      [ 1; 2 ]
  in
  let searches =
    List.concat_map
      (fun complex ->
        List.concat_map
          (fun terms ->
            List.map
              (fun method_ ->
                let request =
                  Service.Engine.Search { terms; method_; complex; anchor = None }
                in
                ( Printf.sprintf "%s %s %s"
                    (Service.Engine.search_method_to_string method_)
                    (if complex then "complex" else "simple")
                    (String.concat "+" terms),
                  request,
                  oracle snap (search_list method_ ~complex ~terms) ))
              methods
            @ List.concat_map
                (fun tag ->
                  List.map
                    (fun method_ ->
                      ( Printf.sprintf "%s-anchored %s"
                          tag (Service.Engine.search_method_to_string method_),
                        Service.Engine.Search
                          { terms; method_; complex; anchor = Some tag },
                        oracle snap (anchored_list tag ~complex ~terms) ))
                    Service.Engine.[ Termjoin; Genmeet; Comp1; Auto ])
                [ "section"; "chapter" ])
          [ [ "xterm" ]; [ "xterm"; "yterm" ] ])
      [ false; true ]
  in
  let phrases =
    List.map
      (fun comp3 ->
        ( (if comp3 then "comp3" else "phrase"),
          Service.Engine.Phrase { phrase = "pa pb"; comp3 },
          oracle snap (fun seg ->
              if comp3 then Access.Composite.comp3_list seg.ctx ~phrase:[ "pa"; "pb" ]
              else Access.Phrase_finder.to_list seg.ctx ~phrase:[ "pa"; "pb" ]) ))
      [ false; true ]
  in
  List.for_all
    (fun (label, request, expected) -> all ~label request expected)
    (searches @ phrases)
  && List.for_all
       (fun q ->
         let rows, total, steps = query_oracle snap q in
         List.for_all
           (fun parallelism ->
             List.for_all
               (fun k ->
                 expect
                   ~what:(Printf.sprintf "%s/query k=%s par=%d: %s" what
                            (match k with Some k -> string_of_int k | None -> "none")
                            parallelism q)
                   ~k
                   (run ~k ~parallelism
                      (Service.Engine.Query { q; mode = `Engine }))
                   (rows, total, steps))
               ks)
           [ 1; 2 ])
       [
         query [ "xterm" ];
         query ~limit:5 [ "xterm" ];
         query ~limit:1 [ "xterm"; "yterm" ];
         query ~path:"//section" ~limit:3 [ "xterm"; "yterm" ];
         query ~glob:"article-*" ~limit:4 [ "yterm" ];
         query ~pick:true ~limit:4 [ "xterm" ];
       ]

let test_selector_equivalence =
  QCheck.Test.make ~name:"selector = materialize, filter, sort, truncate"
    ~count:6
    QCheck.(pair (int_bound 1000) (int_range 3 6))
    (fun (seed, articles) ->
      List.for_all check_snapshot (snapshots seed articles))

let () =
  Alcotest.run "select"
    [
      ( "selector",
        [ QCheck_alcotest.to_alcotest test_selector_equivalence ] );
    ]
