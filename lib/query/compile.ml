let src = Logs.Src.create "tix.query" ~doc:"TIX query compiler"

module Log = (val Logs.src_log src)

type plan = {
  document : string;
  structure : Core.Pattern.t;
  self_or_descendant : bool;
  terms : string list;
  weights : float array;
  pick : (Functions.fctx -> Core.Op_pick.criterion) option;
  min_score : float option;
  limit : int option;
  access : Access.Pattern_exec.access;
  estimate : Planner.decision option;
}

let ( let* ) = Result.bind

let unsupported fmt = Printf.ksprintf (fun s -> Error s) fmt

(* [author/sname = "lit"] chains become nested pc pattern nodes with a
   Content_eq on the last one. *)
let pattern_of_predicate ~next_var (pred : Ast.pred) =
  match pred with
  | Ast.Pred_cmp (Ast.Eq, Ast.Path (Ast.Var ".", steps), Ast.String_lit lit)
    ->
    let rec build steps =
      match steps with
      | [] -> unsupported "empty predicate path"
      | [ { Ast.step_axis; predicates = [] } ] -> begin
        match step_axis with
        | Ast.Child name ->
          let var = !next_var in
          incr next_var;
          Ok
            (Core.Pattern.pnode
               ~pred:(Core.Pattern.And (Core.Pattern.Tag name, Core.Pattern.Content_eq lit))
               var [])
        | Ast.Text -> unsupported "trailing text() in predicate"
        | Ast.Descendant _ | Ast.Self_or_descendant | Ast.Attribute _ ->
          unsupported "unsupported predicate step"
      end
      | { Ast.step_axis = Ast.Child name; predicates = [] } :: rest ->
        let var = !next_var in
        incr next_var;
        let* child = build rest in
        Ok (Core.Pattern.pnode ~pred:(Core.Pattern.Tag name) var [ child ])
      | { Ast.step_axis = Ast.Text; predicates = [] } :: rest ->
        (* ignore a final text() step: Content_eq compares text *)
        if rest = [] then unsupported "text() must terminate the path"
        else unsupported "text() in the middle of a predicate path"
      | _ -> unsupported "nested predicates are not compilable"
    in
    build steps
  | Ast.Pred_cmp _ -> unsupported "only = predicates against literals compile"
  | Ast.Pred_exists _ -> unsupported "existence predicates do not compile yet"

(* a source of the form document("D")//tag[preds], optionally
   followed by a descendant-or-self step *)
let parse_source expr =
  match expr with
  | Ast.Path (Ast.Document document, steps) -> begin
    match steps with
    | [ { Ast.step_axis = Ast.Descendant tag; predicates } ] ->
      Ok (document, tag, predicates, false)
    | [
     { Ast.step_axis = Ast.Descendant tag; predicates };
     { Ast.step_axis = Ast.Self_or_descendant; predicates = [] };
    ] ->
      Ok (document, tag, predicates, true)
    | _ -> unsupported "only document(...)//tag[...](/descendant-or-self::*) compiles"
  end
  | _ -> unsupported "the for clause must range over a document path"

let single_word_phrases set =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> begin
      match Ir.Phrase.parse p with
      | [ term ] -> go (term :: acc) rest
      | _ -> unsupported "phrase %S needs PhraseFinder; not compiled" p
    end
  in
  go [] set

let const_value = function
  | Ast.Number_lit f -> Some (Functions.Num f)
  | Ast.String_lit s -> Some (Functions.Str s)
  | Ast.String_set ss -> Some (Functions.Str_list ss)
  | _ -> None

let compile ?functions (q : Ast.t) =
  let fns = match functions with Some f -> f | None -> Functions.builtins () in
  (* clause shape: one for, one score, optional pick *)
  let* var, source, score_clause, pick_clause =
    match q.clauses with
    | [ Ast.For (v, src); Ast.Score (sv, f, args) ] when v = sv ->
      Ok (v, src, (f, args), None)
    | [ Ast.For (v, src); Ast.Score (sv, f, args); Ast.Pick (pv, pf, pargs) ]
      when v = sv && v = pv ->
      Ok (v, src, (f, args), Some (pf, pargs))
    | _ -> unsupported "clause shape is not for/score[/pick] over one variable"
  in
  let* document, tag, predicates, self_or_descendant = parse_source source in
  (* structural pattern: var 1 is the anchor; predicate chains get
     fresh variables *)
  let next_var = ref 2 in
  let* children =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* child = pattern_of_predicate ~next_var p in
        Ok (child :: acc))
      (Ok []) predicates
  in
  let structure =
    Core.Pattern.make
      (Core.Pattern.pnode ~pred:(Core.Pattern.Tag tag) 1 (List.rev children))
      []
  in
  (* scoring: ScoreFoo with single-word phrases *)
  let* terms, weights =
    match score_clause with
    | f, [ Ast.Var v'; Ast.String_set primary; Ast.String_set secondary ]
      when String.lowercase_ascii f = "scorefoo" && v' = var ->
      let* p = single_word_phrases primary in
      let* s = single_word_phrases secondary in
      let weights =
        Array.of_list (List.map (fun _ -> 0.8) p @ List.map (fun _ -> 0.6) s)
      in
      Ok (p @ s, weights)
    | f, _ -> unsupported "scoring function %s(...) is not compilable" f
  in
  (* pick criterion from constant arguments *)
  let* pick =
    match pick_clause with
    | None -> Ok None
    | Some (pf, pargs) -> begin
      match Functions.pick fns pf with
      | None -> unsupported "unknown pick function %s" pf
      | Some mk ->
        let consts =
          List.filter_map
            (fun a ->
              match a with Ast.Var v' when v' = var -> None | a -> const_value a)
            pargs
        in
        if
          List.length consts
          <> List.length
               (List.filter
                  (function Ast.Var v' when v' = var -> false | _ -> true)
                  pargs)
        then unsupported "pick arguments must be literals"
        else Ok (Some (fun fctx -> mk fctx consts))
    end
  in
  (* ranking and threshold *)
  let* () =
    match q.sortby with
    | Some "score" | None -> Ok ()
    | Some other -> unsupported "sortby(%s) is not compilable" other
  in
  let* min_score, limit =
    match q.thresh with
    | None -> Ok (None, None)
    | Some { Ast.t_expr; t_cmp = Ast.Gt; t_value; stop_after } -> begin
      match t_expr with
      | Ast.Path (Ast.Var v', [ { Ast.step_axis = Ast.Attribute "score"; _ } ])
        when v' = var ->
        Ok (Some t_value, stop_after)
      | _ -> unsupported "threshold must test $%s/@score" var
    end
    | Some _ -> unsupported "only strict > thresholds compile"
  in
  (* TermJoin emits only elements containing at least one query term;
     an unthresholded query without Pick also returns zero-scored
     bindings, which the engine path cannot produce. Such queries are
     not IR-style; leave them to the interpreter. *)
  let* () =
    if pick <> None || (match min_score with Some v -> v >= 0. | None -> false)
    then Ok ()
    else
      unsupported
        "a non-negative score threshold or a pick clause is required for the \
         engine path"
  in
  (* The static access-method rule, used when no statistics are
     available: single-term scoring merges one posting list, where
     TermJoin's stack pass is the obvious choice; multi-term scoring
     lowers onto the generic composite pipeline (Comp1), whose
     sort-group-union covers any term count with the operators a
     stock engine already has. The rule ignores term frequency — on
     frequent terms Comp1 materializes every (occurrence, ancestor)
     tuple — which is exactly what {!plan_with_stats} corrects. *)
  let access =
    if List.length terms >= 2 then Access.Pattern_exec.Comp1
    else Access.Pattern_exec.Term_join Access.Term_join.Plain
  in
  Ok
    {
      document;
      structure;
      self_or_descendant;
      terms;
      weights;
      pick;
      min_score;
      limit;
      access;
      estimate = None;
    }

(* The anchor's tag, as a catalog id, for the planner's structural
   selectivity estimate. *)
let anchor_tag db (p : plan) =
  let rec pred_tag = function
    | Core.Pattern.Tag t -> Some t
    | Core.Pattern.And (a, b) -> begin
      match pred_tag a with Some _ as s -> s | None -> pred_tag b
    end
    | _ -> None
  in
  match Core.Pattern.find_var p.structure 1 with
  | Some n ->
    Option.bind (pred_tag n.pred)
      (Store.Catalog.tag_id (Store.Db.catalog db))
  | None -> None

let plan_with_stats ?feedback ?key ?parallelism db (p : plan) =
  let decision =
    Planner.choose ?feedback ?key ?anchor_tag:(anchor_tag db p) ?parallelism
      ~stats:(Store.Db.collection_stats db)
      ~index:(Store.Db.index db) ~terms:p.terms ()
  in
  { p with access = decision.Planner.access; estimate = Some decision }

(* ------------------------------------------------------------------ *)
(* Execution *)

(* Build the candidate forest of one document from its scored nodes
   (sorted in document order): intervals are laminar, so a stack pass
   reconstructs the hierarchy that projection would produce. *)
let forest_of_scored nodes =
  let finished = ref [] in
  (* stack of (node, children-so-far in reverse) *)
  let stack : (Access.Scored_node.t * Core.Stree.t list ref) list ref =
    ref []
  in
  let close ((n : Access.Scored_node.t), children) =
    let tree =
      Core.Stree.make ~score:n.score
        ~id:(Core.Stree.Stored { doc = n.doc; start = n.start })
        "node"
        (List.rev_map (fun c -> Core.Stree.Node c) !children)
    in
    match !stack with
    | (_, parent_children) :: _ -> parent_children := tree :: !parent_children
    | [] -> finished := tree :: !finished
  in
  let rec pop_before (n : Access.Scored_node.t) =
    match !stack with
    | (((top : Access.Scored_node.t), _) as entry) :: rest
      when top.doc < n.doc || (top.doc = n.doc && top.end_ < n.start) ->
      stack := rest;
      close entry;
      pop_before n
    | _ :: _ | [] -> ()
  in
  List.iter
    (fun (n : Access.Scored_node.t) ->
      pop_before n;
      stack := (n, ref []) :: !stack)
    nodes;
  (* drain *)
  let rec drain () =
    match !stack with
    | entry :: rest ->
      stack := rest;
      close entry;
      drain ()
    | [] -> ()
  in
  drain ();
  List.rev !finished

(* Pick over the post-ScoreFilter nodes: group by document, build
   each document's candidate forest and keep what the streaming Pick
   returns. *)
let pick_nodes crit nodes =
  let nodes = List.sort Access.Scored_node.compare_pos nodes in
  let returned = Hashtbl.create 256 in
  let flush nodes =
    List.iter
      (fun root ->
        List.iter
          (fun (t : Core.Stree.t) ->
            match t.id with
            | Core.Stree.Stored { doc; start } ->
              Hashtbl.replace returned (doc, start) ()
            | Core.Stree.Synthetic _ -> ())
          (Access.Pick_stack.returned crit ~candidates:(fun _ -> true) root))
      (forest_of_scored (List.rev nodes))
  in
  let rec group current current_doc = function
    | [] -> flush current
    | (n : Access.Scored_node.t) :: rest ->
      if n.doc = current_doc || current = [] then group (n :: current) n.doc rest
      else begin
        flush current;
        group [ n ] n.doc rest
      end
  in
  group [] (-1) nodes;
  List.filter
    (fun (n : Access.Scored_node.t) -> Hashtbl.mem returned (n.doc, n.start))
    nodes

(* The plan up to its Threshold, fused into the access method's emit
   loop: each scored node passes DocFilter, AnchorFilter, ScoreFilter
   and Threshold as it is produced and goes straight to [emit]. Only
   Pick, which needs each document's whole candidate forest,
   materializes. The filters record fused spans carrying their
   cardinalities, and the governor is charged the counts the
   materializing pipeline charged at its boundaries (scored,
   filtered, thresholded), so budgets and steps_used are unchanged. *)
let run ?(trace = Core.Trace.disabled) ~governor:gov db (p : plan) ~emit =
  Log.debug (fun m ->
      m "executing engine plan: terms=%s, pick=%b" (String.concat "," p.terms)
        (p.pick <> None));
  let account n =
    Core.Governor.tick_n gov n;
    Core.Governor.check_results gov n;
    Core.Governor.check_deadline gov
  in
  let ctx = Access.Ctx.of_db db in
  (* documents matching the glob, decided on first sight *)
  let doc_ok =
    let catalog = Store.Db.catalog db in
    let n = Store.Catalog.document_count catalog in
    let memo = Bytes.make n '?' in
    fun doc ->
      doc >= 0 && doc < n
      &&
      match Bytes.get memo doc with
      | 'y' -> true
      | 'n' -> false
      | _ ->
        let ok = Glob.matches p.document (Store.Catalog.document_name catalog doc) in
        Bytes.set memo doc (if ok then 'y' else 'n');
        ok
  in
  (* the scored variable is the anchor itself, unless it ranges over
     the anchor's subtree *)
  let is_anchor =
    if p.self_or_descendant then fun _ -> true
    else begin
      let anchors = Access.Pattern_exec.anchors ctx p.structure ~var:1 in
      fun (n : Access.Scored_node.t) ->
        Access.Structural_join.mem anchors ~doc:n.doc ~start:n.start
    end
  in
  let above_threshold (n : Access.Scored_node.t) =
    match p.min_score with Some v -> n.score > v | None -> true
  in
  let n_scored = ref 0 and n_docs = ref 0 and n_anchors = ref 0 in
  let n_positive = ref 0 and n_out = ref 0 in
  let candidates = ref [] in
  let out n =
    if above_threshold n then begin
      incr n_out;
      emit n
    end
  in
  let filter (n : Access.Scored_node.t) =
    incr n_scored;
    if doc_ok n.doc then begin
      incr n_docs;
      if is_anchor n then begin
        incr n_anchors;
        if n.score > 0. then begin
          incr n_positive;
          if p.pick = None then out n else candidates := n :: !candidates
        end
      end
    end
  in
  let (_ : int) =
    Access.Pattern_exec.run ~trace ~access:p.access ~weights:p.weights ctx
      p.structure ~struct_var:1 ~terms:p.terms ~emit:filter ()
  in
  account !n_scored;
  Core.Trace.fused trace "DocFilter" ~input:!n_scored ~output:!n_docs;
  if not p.self_or_descendant then
    Core.Trace.fused trace "AnchorFilter" ~input:!n_docs ~output:!n_anchors;
  Core.Trace.fused trace "ScoreFilter" ~input:!n_anchors ~output:!n_positive;
  account !n_positive;
  let thresholded = !n_positive in
  let thresholded =
    match p.pick with
    | None -> thresholded
    | Some mk_crit ->
      let crit = mk_crit { Functions.db } in
      let nodes =
        if Core.Trace.enabled trace then
          Core.Trace.span_over ~governor:gov trace "Pick" !candidates
            (pick_nodes crit)
        else pick_nodes crit !candidates
      in
      List.iter out nodes;
      List.length nodes
  in
  if p.min_score <> None then
    Core.Trace.fused trace "Threshold" ~input:thresholded ~output:!n_out;
  account !n_out;
  !n_out

let query_span ?(trace = Core.Trace.disabled) ~governor (p : plan) body =
  Core.Trace.enter ~governor trace "CompiledQuery";
  match body () with
  | n, v ->
    let out = match p.limit with Some k -> max 0 (min k n) | None -> n in
    Core.Trace.fused trace "Rank" ~input:n ~output:n;
    if p.limit <> None then Core.Trace.fused trace "Limit" ~input:n ~output:out;
    Core.Trace.leave ~output:out ~governor trace;
    v
  | exception e ->
    Core.Trace.unwind trace;
    raise e

let execute ?(limits = Core.Governor.unlimited) ?trace ?governor db (p : plan) =
  (* A caller-supplied governor lets the service read steps_used after
     the run (and share one budget across plans); [limits] is ignored
     in that case — the governor already carries its own. *)
  let gov =
    match governor with Some g -> g | None -> Core.Governor.start limits
  in
  query_span ?trace ~governor:gov p @@ fun () ->
  (* Rank as a bounded top-[limit] selection fed by the stream *)
  let limit = match p.limit with Some k -> k | None -> max_int in
  let heap =
    Core.Top_k.create ~tie:Access.Scored_node.rank_tie (max 1 limit)
  in
  let n =
    run ?trace ~governor:gov db p ~emit:(fun (n : Access.Scored_node.t) ->
        Core.Top_k.add heap ~score:n.score n)
  in
  ( n,
    if limit <= 0 then []
    else List.map snd (Core.Top_k.to_sorted_list heap) )

let run_string ?functions ?limits ?trace db src =
  match Parser.parse src with
  | Error e -> Error (Format.asprintf "parse error: %a" Parser.pp_error e)
  | Ok q ->
    let* plan = compile ?functions q in
    (match execute ?limits ?trace db plan with
    | results -> Ok results
    | exception Core.Governor.Resource_exhausted v ->
      Error (Core.Governor.violation_to_string v)
    | exception Store.Pager.Read_error e ->
      Error (Format.asprintf "storage error: %a" Store.Pager.pp_read_error e))

let explain (p : plan) =
  Format.asprintf
    "@[<v>engine plan:@,  document glob: %s@,  structure:@,    %a@,  scored \
     var: %s@,  terms: %s (weights %s)@,  access: %s%s@,  pick: %s@,  \
     threshold: %s@,  limit: %s%s@]"
    p.document Core.Pattern.pp p.structure
    (if p.self_or_descendant then "descendant-or-self of anchor" else "anchor")
    (String.concat ", " p.terms)
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "%g") p.weights)))
    (Access.Pattern_exec.access_to_string p.access)
    (match p.estimate with None -> " (static rule)" | Some _ -> " (costed)")
    (match p.pick with Some _ -> "stack-based Pick" | None -> "none")
    (match p.min_score with Some v -> Printf.sprintf "> %g" v | None -> "none")
    (match p.limit with Some k -> string_of_int k | None -> "none")
    (match p.estimate with
    | None -> ""
    | Some d -> Format.asprintf "@,  estimate: %s" (Planner.to_string d))
